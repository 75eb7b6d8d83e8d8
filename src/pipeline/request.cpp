#include "pipeline/request.hpp"

#include "util/hash.hpp"
#include "util/strings.hpp"

namespace ripple::pipeline {

void write_request(ByteWriter& w, const CampaignRequest& request) {
  w.u32(kRequestVersion);
  w.str(request.core);
  w.str(request.workload);
  w.u64(request.config.run_cycles);
  w.u64(request.config.sample);
  w.u64(request.config.seed);
  w.u8(static_cast<std::uint8_t>(request.config.mode));
  w.u64(request.config.threads);
  w.u64(request.config.shard_size);
  w.u32(request.top_n);
  w.u32(request.search_depth);
  w.u64(request.select_cycles);
  w.b(request.resume);
}

CampaignRequest read_request(ByteReader& r) {
  const std::uint32_t version = r.u32();
  RIPPLE_CHECK(version == kRequestVersion,
               "campaign request version mismatch: got ", version,
               ", expected ", kRequestVersion);
  CampaignRequest q;
  q.core = r.str();
  q.workload = r.str();
  q.config.run_cycles = static_cast<std::size_t>(r.u64());
  q.config.sample = static_cast<std::size_t>(r.u64());
  q.config.seed = r.u64();
  const std::uint8_t mode = r.u8();
  RIPPLE_CHECK(mode <= static_cast<std::uint8_t>(hafi::CampaignMode::Validate),
               "campaign request: bad mode ", mode);
  q.config.mode = static_cast<hafi::CampaignMode>(mode);
  q.config.threads = static_cast<std::size_t>(r.u64());
  q.config.shard_size = static_cast<std::size_t>(r.u64());
  q.top_n = r.u32();
  q.search_depth = r.u32();
  q.select_cycles = r.u64();
  q.resume = r.b();
  return q;
}

std::uint64_t request_checksum(const CampaignRequest& request) {
  const bool baseline = request.config.mode == hafi::CampaignMode::Baseline;
  Hasher h;
  h.update_value(kRequestVersion);
  h.update_string(request.core);
  h.update_string(request.workload);
  h.update_value(static_cast<std::uint64_t>(request.config.run_cycles));
  h.update_value(static_cast<std::uint64_t>(request.config.sample));
  h.update_value(request.config.seed);
  h.update_value(static_cast<std::uint8_t>(request.config.mode));
  // MATE derivation, normalized: Baseline campaigns never derive a set, so
  // those fields hash as zero; a select_cycles of 0 resolves to run_cycles.
  h.update_value(baseline ? 0 : request.top_n);
  h.update_value(baseline ? 0 : request.search_depth);
  const std::uint64_t select_cycles =
      baseline || request.top_n == 0
          ? 0
          : (request.select_cycles != 0 ? request.select_cycles
                                        : request.config.run_cycles);
  h.update_value(select_cycles);
  return h.digest();
}

std::string request_summary(const CampaignRequest& request) {
  std::string summary = request.core;
  if (!request.workload.empty()) summary += " " + request.workload;
  summary += " ";
  summary += hafi::mode_name(request.config.mode);
  if (request.config.mode != hafi::CampaignMode::Baseline &&
      request.top_n > 0) {
    summary += strprintf(" top-%u", request.top_n);
  }
  summary += strprintf(", %zu pts @ %zu cycles", request.config.sample,
                       request.config.run_cycles);
  return summary;
}

} // namespace ripple::pipeline
