#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/crc64.hpp"
#include "core/protocol.hpp"
#include "ec/crs_codec.hpp"
#include "gf/simd.hpp"

namespace fabricbench {

using namespace eccheck;

namespace {

/// Median over 5 batches of the per-call time of `call`, each batch
/// running for at least 20 ms so timer resolution never matters.
template <class F>
double seconds_per_call(F&& call) {
  using Clock = std::chrono::steady_clock;
  call();  // first touch of every buffer happens outside the timing
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    int calls = 0;
    double elapsed = 0;
    do {
      call();
      ++calls;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < 0.02);
    per_call.push_back(elapsed / calls);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace

Fields run_probes(const core::ECCheckConfig& ec, const dnn::StateDict& shard) {
  const std::size_t P = ec.packet_size;
  const std::size_t B =
      std::max<std::size_t>(1, core::packets_needed(shard.tensor_bytes(), P));
  const ec::CrsCodec codec(ec.k, ec.m, ec.gf_width, ec.kernel);
  Fields out;

  out["probe.decompose_s"] =
      field_number(seconds_per_call([&] { (void)core::decompose(shard); }));
  const core::Decomposition dec = core::decompose(shard);
  out["probe.pack_s"] = field_number(seconds_per_call(
      [&] { (void)core::pack_packets(dec.tensor_data, P, B); }));

  const std::vector<Buffer> packets = core::pack_packets(dec.tensor_data, P, B);
  Buffer scratch(P, Buffer::Init::kZeroed);
  std::vector<Buffer> rows;
  for (int r = 0; r < std::max(ec.k, ec.m); ++r)
    rows.emplace_back(P, Buffer::Init::kZeroed);
  auto rate = [&](double bytes_per_call, double s) {
    return field_number(bytes_per_call / s);
  };
  const double pass_bytes = static_cast<double>(B * P);

  // Save path: every data packet is multiplied into each of the m rows.
  out["probe.encode_partial_bps"] = rate(
      pass_bytes * ec.m, seconds_per_call([&] {
        for (const Buffer& pkt : packets)
          for (int r = 0; r < ec.m; ++r)
            codec.encode_partial(ec.k + r, 0, pkt.span(),
                                 rows[static_cast<std::size_t>(r)].span(),
                                 /*accumulate=*/false);
      }));

  // Delta path: 4 KiB dirty regions (the delta granularity), one per
  // 16 KiB of packet, folded into all m parity rows.
  const std::size_t region = std::min<std::size_t>(4096, P);
  const std::size_t stride = std::min<std::size_t>(4 * region, P);
  std::vector<MutableByteSpan> parity;
  for (int r = 0; r < ec.m; ++r)
    parity.push_back(rows[static_cast<std::size_t>(r)].span());
  double delta_bytes = 0;
  for (std::size_t off = 0; off + region <= P; off += stride)
    delta_bytes += static_cast<double>(region);
  out["probe.update_parity_bps"] = rate(
      delta_bytes * static_cast<double>(B), seconds_per_call([&] {
        for (const Buffer& pkt : packets)
          for (std::size_t off = 0; off + region <= P; off += stride)
            codec.update_parity(0, off, pkt.subspan(off, region), parity);
      }));

  // Recovery path: k survivors with the first data row lost.
  std::vector<int> survivors;
  for (int r = 1; r <= ec.k; ++r) survivors.push_back(r);
  std::vector<MutableByteSpan> decoded;
  for (int r = 0; r < ec.k; ++r)
    decoded.push_back(rows[static_cast<std::size_t>(r)].span());
  out["probe.decode_bps"] = rate(
      pass_bytes * ec.k, seconds_per_call([&] {
        for (std::size_t b = 0; b < B; ++b) {
          std::vector<ByteSpan> in;
          for (int r = 0; r < ec.k; ++r)
            in.push_back(packets[(b + static_cast<std::size_t>(r)) % B].span());
          codec.decode(survivors, in, decoded);
        }
      }));

  out["probe.crc64_bps"] = rate(pass_bytes, seconds_per_call([&] {
                                  for (const Buffer& pkt : packets)
                                    (void)crc64(pkt.span());
                                }));

  const gf::simd::Kernels& kern = gf::simd::active();
  const gf::simd::MulTables& tables = codec.field().tables_for(0x53);
  out["probe.mul_region_bps"] = rate(pass_bytes, seconds_per_call([&] {
                                       for (const Buffer& pkt : packets)
                                         kern.mul_region_b(tables, pkt.data(),
                                                           scratch.data(), P,
                                                           false);
                                     }));
  out["probe.xor_into_bps"] = rate(pass_bytes, seconds_per_call([&] {
                                     for (const Buffer& pkt : packets)
                                       kern.xor_into(scratch.data(), pkt.data(),
                                                     P);
                                   }));
  out["probe.memcpy_bps"] = rate(pass_bytes, seconds_per_call([&] {
                                   for (const Buffer& pkt : packets)
                                     std::memcpy(scratch.data(), pkt.data(), P);
                                 }));
  out["probe.isa"] = gf::simd::active_isa_name();
  return out;
}

}  // namespace fabricbench
