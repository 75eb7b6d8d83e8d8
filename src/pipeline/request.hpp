// The serializable campaign request — the unit of work of the campaign
// service, lowered onto the in-process pipeline::CampaignSpec by
// CampaignPipeline::run().
//
// A CampaignRequest is pure data: a core *name* (resolved through the
// CoreRegistry, which owns every function-pointer/factory that used to live
// in the spec), a workload name, the campaign configuration, and how to
// derive the MATE set (search depth + top-N selection). It has a versioned
// binary encoding (write_request/read_request) so it can travel the rippled
// wire protocol, and a stable checksum over its result-affecting fields that
// doubles as the daemon's dedup key: two requests with equal checksums are
// guaranteed to produce byte-identical CampaignResults, so concurrent
// clients submitting them share one execution.
#pragma once

#include <cstdint>
#include <string>

#include "hafi/campaign.hpp"
#include "util/serialize.hpp"

namespace ripple::pipeline {

/// Bump when the encoding below changes; read_request rejects other
/// versions (a daemon never guesses at a foreign layout).
inline constexpr std::uint32_t kRequestVersion = 2;

struct CampaignRequest {
  /// CoreRegistry key ("avr", "msp430", or a name the binary registered).
  std::string core = "avr";
  /// Workload the DUT boots and the selection trace records; empty = the
  /// core's default ("fib" for the built-ins).
  std::string workload;
  /// Campaign configuration. `threads` and `shard_size` are scheduling
  /// knobs — serialized, but excluded from the checksum (they never affect
  /// results).
  hafi::CampaignConfig config;
  /// Pruned/Validate: keep only the top-N MATEs of the greedy selection
  /// (0 = the full MATE set, no selection pass needed).
  std::uint32_t top_n = 0;
  /// MATE search depth override (0 = SearchParams default).
  std::uint32_t search_depth = 0;
  /// Selection trace length (0 = config.run_cycles). Ignored when top_n is
  /// 0 or the mode is Baseline.
  std::uint64_t select_cycles = 0;
  /// Persist finished shards to the artifact cache and skip checkpointed
  /// ones. The daemon forces this on so identical re-submissions and
  /// daemon restarts replay instead of re-executing.
  bool resume = false;

  bool operator==(const CampaignRequest&) const = default;
};

/// Versioned binary encoding (the wire and fingerprint form).
void write_request(ByteWriter& w, const CampaignRequest& request);
/// Decode; throws ripple::Error on a version mismatch or malformed bytes.
[[nodiscard]] CampaignRequest read_request(ByteReader& r);

/// Stable dedup key: a hash over the result-affecting fields only.
/// `config.threads`, `config.shard_size` and `resume` are excluded
/// (wall-time/scheduling/persistence knobs — byte-identical results either
/// way), and Baseline requests normalize the MATE-derivation
/// fields away, so e.g. a baseline request with top_n=7 and one with
/// top_n=0 share one execution.
[[nodiscard]] std::uint64_t request_checksum(const CampaignRequest& request);

/// One-line human description ("avr fib pruned, 3000 pts @ 1500 cycles"),
/// used as the default stage detail and in daemon logs.
[[nodiscard]] std::string request_summary(const CampaignRequest& request);

} // namespace ripple::pipeline
