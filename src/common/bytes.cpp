#include "common/bytes.hpp"

#include <deque>
#include <mutex>
#include <new>
#include <utility>

#include "gf/simd.hpp"

namespace eccheck {
namespace {

std::byte* heap_allocate(std::size_t n) {
  return static_cast<std::byte*>(
      ::operator new[](n, std::align_val_t{Buffer::kAlignment}));
}

void heap_release(std::byte* p) {
  ::operator delete[](p, std::align_val_t{Buffer::kAlignment});
}

/// Parked blocks, oldest first. Lookups scan for an exact size; the list
/// holds at most kRecycleCapBytes / kRecycleMinBytes (2048) blocks, and in
/// practice a few sizes (packet, ring segment) repeat.
struct RecycleList {
  std::mutex mu;
  std::deque<std::pair<std::size_t, std::byte*>> blocks;
  std::size_t bytes = 0;
};

RecycleList& recycle_list() {
  // Leaked on purpose: Buffers with static storage may be destroyed after
  // any function-local static would be.
  static RecycleList* list = new RecycleList;
  return *list;
}

}  // namespace

namespace detail {

std::byte* allocate_bytes(std::size_t n) {
  if (kRecycleBuffers && n >= kRecycleMinBytes) {
    RecycleList& r = recycle_list();
    std::lock_guard<std::mutex> lock(r.mu);
    // Newest first: its pages are the likeliest to still be in cache.
    for (auto it = r.blocks.rbegin(); it != r.blocks.rend(); ++it) {
      if (it->first != n) continue;
      std::byte* p = it->second;
      r.blocks.erase(std::next(it).base());
      r.bytes -= n;
      return p;
    }
  }
  return heap_allocate(n);
}

void release_bytes(std::byte* p, std::size_t n) noexcept {
  if (p == nullptr) return;
  if (!kRecycleBuffers || n < kRecycleMinBytes ||
      n > kRecycleCapBytes) {
    heap_release(p);
    return;
  }
  RecycleList& r = recycle_list();
  std::lock_guard<std::mutex> lock(r.mu);
  try {
    r.blocks.emplace_back(n, p);
  } catch (...) {  // no room to park it: free it instead
    heap_release(p);
    return;
  }
  r.bytes += n;
  while (r.bytes > kRecycleCapBytes) {
    heap_release(r.blocks.front().second);
    r.bytes -= r.blocks.front().first;
    r.blocks.pop_front();
  }
}

}  // namespace detail

std::size_t recycled_bytes() {
  RecycleList& r = recycle_list();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.bytes;
}

void xor_into(MutableByteSpan dst, ByteSpan src) {
  ECC_CHECK(dst.size() == src.size());
  if (dst.empty()) return;
  // Runtime-dispatched kernel (SSE2/AVX2/NEON when the host has them);
  // see gf/simd.hpp. Callers on a tight loop can hoist gf::simd::active()
  // and call the function pointer directly.
  gf::simd::active().xor_into(dst.data(), src.data(), dst.size());
}

}  // namespace eccheck
