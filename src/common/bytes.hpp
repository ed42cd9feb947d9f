// Owned byte buffers and views used throughout the checkpoint pipeline.
//
// Buffers are 64-byte aligned so XOR/GF region kernels can assume aligned
// word access, and zero-initialisation is explicit (parity buffers must start
// zeroed; data buffers may skip the cost).
//
// Large blocks are recycled: every save allocates the same packet, segment
// and frame sizes as the last one and drops an old version of the same
// shape, so a freed block of at least kRecycleMinBytes is parked in a
// bounded per-process free list and handed to the next Buffer of exactly
// that size. Steady-state saves then touch no fresh pages, and their cost no
// longer depends on where malloc happened to trim or map its heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace eccheck {

using ByteSpan = std::span<const std::byte>;
using MutableByteSpan = std::span<std::byte>;

namespace detail {
/// Buffer storage: blocks of at least kRecycleMinBytes come from the recycle
/// list when a block of exactly `n` bytes is parked there.
std::byte* allocate_bytes(std::size_t n);
/// Parks a large block (oldest parked blocks are freed once the list holds
/// more than kRecycleCapBytes); smaller blocks go straight back to the heap.
void release_bytes(std::byte* p, std::size_t n) noexcept;
}  // namespace detail

/// Smallest block the recycle list keeps, and the most it holds in total.
inline constexpr std::size_t kRecycleMinBytes = std::size_t{64} << 10;
inline constexpr std::size_t kRecycleCapBytes = std::size_t{128} << 20;

/// AddressSanitizer must see every free, or a use-after-free of a parked
/// block would go unreported: sanitized builds skip the recycle list.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kRecycleBuffers = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kRecycleBuffers = false;
#else
inline constexpr bool kRecycleBuffers = true;
#endif
#else
inline constexpr bool kRecycleBuffers = true;
#endif

/// Bytes currently parked in the recycle list (for tests and diagnostics).
std::size_t recycled_bytes();

/// Owned, 64-byte-aligned, fixed-size byte buffer.
class Buffer {
 public:
  Buffer() = default;

  enum class Init { kZeroed, kUninitialized };

  explicit Buffer(std::size_t size, Init init = Init::kZeroed) : size_(size) {
    if (size_ == 0) return;
    data_ = Storage(detail::allocate_bytes(size_), Release{size_});
    if (init == Init::kZeroed) std::memset(data_.get(), 0, size_);
  }

  static Buffer copy_of(ByteSpan src) {
    Buffer b(src.size(), Init::kUninitialized);
    if (!src.empty()) std::memcpy(b.data(), src.data(), src.size());
    return b;
  }

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  std::byte* data() { return data_.get(); }
  const std::byte* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  ByteSpan span() const { return {data_.get(), size_}; }
  MutableByteSpan span() { return {data_.get(), size_}; }

  ByteSpan subspan(std::size_t offset, std::size_t len) const {
    ECC_CHECK(offset + len <= size_);
    return {data_.get() + offset, len};
  }
  MutableByteSpan subspan(std::size_t offset, std::size_t len) {
    ECC_CHECK(offset + len <= size_);
    return {data_.get() + offset, len};
  }

  void zero() {
    if (size_ != 0) std::memset(data_.get(), 0, size_);
  }

  Buffer clone() const { return copy_of(span()); }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data_.get(), b.data_.get(), a.size_) == 0);
  }

  static constexpr std::size_t kAlignment = 64;

 private:
  struct Release {
    std::size_t size;
    void operator()(std::byte* p) const { detail::release_bytes(p, size); }
  };
  using Storage = std::unique_ptr<std::byte[], Release>;
  Storage data_;
  std::size_t size_ = 0;
};

/// XOR `src` into `dst` (dst ^= src). Spans must be the same length.
/// Vectorized behind the runtime ISA dispatch in gf/simd.hpp (overridable
/// with ECCHECK_SIMD); any alignment is accepted, but 64-byte-aligned
/// buffers (every eccheck::Buffer) take the aligned fast path.
void xor_into(MutableByteSpan dst, ByteSpan src);

/// Convenience: bytes of a trivially copyable value.
template <typename T>
ByteSpan as_bytes_of(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const std::byte*>(&v), sizeof(T)};
}

}  // namespace eccheck
