// AVX2 kernels: the SSSE3 split-table technique widened to 256-bit
// registers (vpshufb shuffles within each 128-bit lane, which is exactly
// what a broadcast 16-entry table wants). XOR gets an aligned fast path —
// eccheck::Buffer allocations are 64-byte aligned, so whole-packet calls
// peel at most a strip prefix and then run aligned loads/stores. CRC64
// folds 16-byte blocks with PCLMULQDQ (compiled with -mpclmul alongside
// -mavx2; the dispatcher checks both cpuid bits).
#include "gf/simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__) && \
    defined(__PCLMUL__)

#include <immintrin.h>

namespace eccheck::gf::simd::detail {
namespace {

inline __m256i loadu(const void* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void storeu(void* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline __m256i broadcast_table(const std::uint8_t* t16) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t16)));
}

void xor_into_avx2(std::byte* dst, const std::byte* src, std::size_t n) {
  auto* d = reinterpret_cast<unsigned char*>(dst);
  const auto* s = reinterpret_cast<const unsigned char*>(src);
  std::size_t i = 0;
  const std::size_t dmis = reinterpret_cast<std::uintptr_t>(d) & 31;
  if (n >= 96 && dmis != 0 &&
      dmis == (reinterpret_cast<std::uintptr_t>(s) & 31)) {
    // Co-aligned buffers: peel to a 32-byte boundary, then run aligned.
    xor_scalar(dst, src, 32 - dmis);
    i = 32 - dmis;
  }
  if (((reinterpret_cast<std::uintptr_t>(d + i) |
        reinterpret_cast<std::uintptr_t>(s + i)) &
       31) == 0) {
    for (; i + 64 <= n; i += 64) {
      const __m256i* ds = reinterpret_cast<const __m256i*>(d + i);
      const __m256i* ss = reinterpret_cast<const __m256i*>(s + i);
      __m256i r0 = _mm256_xor_si256(_mm256_load_si256(ds),
                                    _mm256_load_si256(ss));
      __m256i r1 = _mm256_xor_si256(_mm256_load_si256(ds + 1),
                                    _mm256_load_si256(ss + 1));
      _mm256_store_si256(reinterpret_cast<__m256i*>(d + i), r0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(d + i) + 1, r1);
    }
  } else {
    for (; i + 64 <= n; i += 64) {
      __m256i r0 = _mm256_xor_si256(loadu(d + i), loadu(s + i));
      __m256i r1 = _mm256_xor_si256(loadu(d + i + 32), loadu(s + i + 32));
      storeu(d + i, r0);
      storeu(d + i + 32, r1);
    }
  }
  for (; i + 32 <= n; i += 32)
    storeu(d + i, _mm256_xor_si256(loadu(d + i), loadu(s + i)));
  if (i < n) xor_scalar(dst + i, src + i, n - i);
}

template <bool Acc>
void mul_b_impl(const MulTables& t, const std::byte* src, std::byte* dst,
                std::size_t n) {
  const __m256i lo_tab = broadcast_table(t.lo_nib);
  const __m256i hi_tab = broadcast_table(t.hi_nib);
  const __m256i nib = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = loadu(src + i);
    const __m256i lo = _mm256_and_si256(v, nib);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
    __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo_tab, lo),
                                 _mm256_shuffle_epi8(hi_tab, hi));
    if (Acc) p = _mm256_xor_si256(p, loadu(dst + i));
    storeu(dst + i, p);
  }
  if (i < n) mul_region_b_scalar(t, src + i, dst + i, n - i, Acc);
}

/// w=16, 64 bytes (32 symbols) per block. pack/unpack operate per 128-bit
/// lane, but since the deinterleave (pack) and reinterleave (unpack) use the
/// same lane geometry the output lands back in source order — see the r0/r1
/// comments.
template <bool Acc>
void mul_w16_impl(const MulTables& t, const std::byte* src, std::byte* dst,
                  std::size_t n) {
  const __m256i tl0 = broadcast_table(t.nib16_lo[0]);
  const __m256i tl1 = broadcast_table(t.nib16_lo[1]);
  const __m256i tl2 = broadcast_table(t.nib16_lo[2]);
  const __m256i tl3 = broadcast_table(t.nib16_lo[3]);
  const __m256i th0 = broadcast_table(t.nib16_hi[0]);
  const __m256i th1 = broadcast_table(t.nib16_hi[1]);
  const __m256i th2 = broadcast_table(t.nib16_hi[2]);
  const __m256i th3 = broadcast_table(t.nib16_hi[3]);
  const __m256i nib = _mm256_set1_epi8(0x0f);
  const __m256i lo8 = _mm256_set1_epi16(0x00ff);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i a = loadu(src + i);       // symbols 0..15, interleaved
    const __m256i b = loadu(src + i + 32);  // symbols 16..31
    const __m256i lo = _mm256_packus_epi16(_mm256_and_si256(a, lo8),
                                           _mm256_and_si256(b, lo8));
    const __m256i hi = _mm256_packus_epi16(_mm256_srli_epi16(a, 8),
                                           _mm256_srli_epi16(b, 8));
    const __m256i n0 = _mm256_and_si256(lo, nib);
    const __m256i n1 = _mm256_and_si256(_mm256_srli_epi16(lo, 4), nib);
    const __m256i n2 = _mm256_and_si256(hi, nib);
    const __m256i n3 = _mm256_and_si256(_mm256_srli_epi16(hi, 4), nib);
    const __m256i plo = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_shuffle_epi8(tl0, n0),
                         _mm256_shuffle_epi8(tl1, n1)),
        _mm256_xor_si256(_mm256_shuffle_epi8(tl2, n2),
                         _mm256_shuffle_epi8(tl3, n3)));
    const __m256i phi = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_shuffle_epi8(th0, n0),
                         _mm256_shuffle_epi8(th1, n1)),
        _mm256_xor_si256(_mm256_shuffle_epi8(th2, n2),
                         _mm256_shuffle_epi8(th3, n3)));
    // unpacklo rebuilds symbols 0..7 (lane 0) and 8..15 (lane 1) = bytes
    // [i, i+32); unpackhi rebuilds 16..23 / 24..31 = bytes [i+32, i+64).
    __m256i r0 = _mm256_unpacklo_epi8(plo, phi);
    __m256i r1 = _mm256_unpackhi_epi8(plo, phi);
    if (Acc) {
      r0 = _mm256_xor_si256(r0, loadu(dst + i));
      r1 = _mm256_xor_si256(r1, loadu(dst + i + 32));
    }
    storeu(dst + i, r0);
    storeu(dst + i + 32, r1);
  }
  if (i < n) mul_region_w16_scalar(t, src + i, dst + i, n - i, Acc);
}

void mul_b(const MulTables& t, const std::byte* src, std::byte* dst,
           std::size_t n, bool accumulate) {
  if (accumulate)
    mul_b_impl<true>(t, src, dst, n);
  else
    mul_b_impl<false>(t, src, dst, n);
}

void mul_w16(const MulTables& t, const std::byte* src, std::byte* dst,
             std::size_t n, bool accumulate) {
  if (accumulate)
    mul_w16_impl<true>(t, src, dst, n);
  else
    mul_w16_impl<false>(t, src, dst, n);
}

// CRC64 by carry-less folding. CRC-64/WE is MSB-first, so after a byte
// reversal each 16-byte block is the polynomial with its first message bit
// at x^127 and clmul products need no bit reflection. The register update
// is reg·x^(8n) + M·x^64 mod P, so the incoming register is XORed into the
// first 8 message bytes and the rest is the CRC of a plain message M. A
// 128-bit state F stands for the bytes read so far: M ≡ F·x^(8r) + (the r
// unread bytes) mod P. Folding d more bytes into F is F·x^(8d) + next =
// clmul(F.hi, x^(8d+64) mod P) ^ clmul(F.lo, x^(8d) mod P) ^ next, each
// product under 128 bits. The slice-by-8 kernel finishes from register 0
// over F's 16 bytes (yielding F·x^64 mod P) and then the tail, so no
// Barrett reduction constants are needed.
//
// Constants as (hi, lo) qwords for _mm_clmulepi64_si128 selectors 0x11 and
// 0x00: x^576/x^512 mod P folds across 64 bytes (four lanes), x^192/x^128
// mod P across 16.
inline __m128i fold(__m128i a, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x11),
                                     _mm_clmulepi64_si128(a, k, 0x00)),
                       next);
}

std::uint64_t crc64_clmul(std::uint64_t reg, const std::byte* p,
                          std::size_t n) {
  if (n < 64) return crc64_slice8(reg, p, n);
  const __m128i rev =
      _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const auto load = [&](const std::byte* q) {
    return _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q)), rev);
  };
  const __m128i k64 = _mm_set_epi64x(
      static_cast<long long>(0xddf4b6981205b83fULL),
      static_cast<long long>(0x5f6843ca540df020ULL));
  const __m128i k16 = _mm_set_epi64x(
      static_cast<long long>(0x4eb938a7d257740eULL),
      static_cast<long long>(0x05f5c3c7eb52fab6ULL));

  __m128i a0 = _mm_xor_si128(load(p),
                             _mm_set_epi64x(static_cast<long long>(reg), 0));
  __m128i a1 = load(p + 16);
  __m128i a2 = load(p + 32);
  __m128i a3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    a0 = fold(a0, k64, load(p));
    a1 = fold(a1, k64, load(p + 16));
    a2 = fold(a2, k64, load(p + 32));
    a3 = fold(a3, k64, load(p + 48));
  }
  __m128i f = fold(fold(fold(a0, k16, a1), k16, a2), k16, a3);
  for (; n >= 16; p += 16, n -= 16) f = fold(f, k16, load(p));

  alignas(16) std::byte state[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(state),
                  _mm_shuffle_epi8(f, rev));
  return crc64_slice8(crc64_slice8(0, state, sizeof(state)), p, n);
}

const Kernels kAvx2Kernels{Isa::kAvx2, &xor_into_avx2, &mul_b, &mul_w16,
                           &crc64_clmul};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2Kernels; }

}  // namespace eccheck::gf::simd::detail

#else  // not x86 / no AVX2 + PCLMUL

namespace eccheck::gf::simd::detail {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace eccheck::gf::simd::detail

#endif
