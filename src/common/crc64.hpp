// CRC64 (ECMA-182 polynomial) for checkpoint integrity verification.
//
// Every tensor carries a CRC so tests can assert bit-exact recovery without
// holding a second copy of multi-megabyte payloads.
//
// The variant is CRC-64/WE (MSB-first, init and xorout all ones): with the
// default seed, crc64("123456789") == 0x62ec59e3f1a4f00a. Passing a previous
// result as `seed` continues it: crc64(b, crc64(a)) == crc64(a‖b). The
// kernel comes from the gf::simd dispatch (slice-by-8, or PCLMULQDQ folding
// on avx2) and follows ECCHECK_SIMD; every ISA returns the same value.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace eccheck {

std::uint64_t crc64(ByteSpan data, std::uint64_t seed = 0);

}  // namespace eccheck
