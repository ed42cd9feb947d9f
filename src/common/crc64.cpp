#include "common/crc64.hpp"

#include "gf/simd.hpp"

namespace eccheck {

std::uint64_t crc64(ByteSpan data, std::uint64_t seed) {
  // The kernels run on the raw register; CRC-64/WE inverts it on the way in
  // and out, which is also what makes crc64(b, crc64(a)) == crc64(a‖b).
  return ~gf::simd::active().crc64(~seed, data.data(), data.size());
}

}  // namespace eccheck
