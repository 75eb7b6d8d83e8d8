// Versioned, checksummed binary serialization of the pipeline's typed
// artifacts: netlists, trace chunks, MATE sets, search results and
// selections.
//
// The byte stream is canonical (fixed-width little-endian fields, entities
// in id order), so it serves three purposes at once:
//   * the on-disk artifact format of the content-addressed cache,
//   * the input to content fingerprints (two artifacts are equal iff their
//     payloads are byte-identical),
//   * the deep-equality oracle of the round-trip tests.
//
// Framing: every artifact file is
//   "RPLA" | u32 format version | type tag | u64 payload size | payload |
//   u64 FNV-1a(payload)
// Readers reject wrong magic/version/tag and checksum mismatches with
// ripple::Error; the cache maps that to a miss (never a crash).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "hafi/campaign.hpp"
#include "mate/eval.hpp"
#include "mate/search.hpp"
#include "mate/select.hpp"
#include "netlist/netlist.hpp"
#include "sim/trace.hpp"
#include "sim/transposed.hpp"
#include "util/serialize.hpp"

namespace ripple::pipeline {

/// Bump when any payload layout below changes; part of every cache key and
/// of every frame, so stale cache directories invalidate themselves and a
/// file from another version reads as a miss.
inline constexpr std::uint32_t kArtifactVersion = 3;

// --- payload serializers (symmetrical write/read pairs) -------------------

void write_netlist(ByteWriter& w, const netlist::Netlist& n);
[[nodiscard]] netlist::Netlist read_netlist(ByteReader& r);

void write_transposed_trace(ByteWriter& w, const sim::TransposedTrace& t);
[[nodiscard]] sim::TransposedTrace read_transposed_trace(ByteReader& r);

void write_mate_set(ByteWriter& w, const mate::MateSet& set);
[[nodiscard]] mate::MateSet read_mate_set(ByteReader& r);

void write_search_result(ByteWriter& w, const mate::SearchResult& result);
[[nodiscard]] mate::SearchResult read_search_result(ByteReader& r);

void write_selection(ByteWriter& w, const mate::SelectionResult& sel);
[[nodiscard]] mate::SelectionResult read_selection(ByteReader& r);

void write_eval_result(ByteWriter& w, const mate::EvalResult& eval);
[[nodiscard]] mate::EvalResult read_eval_result(ByteReader& r);

/// Campaign shard checkpoint (the unit of interrupt/resume persistence) and
/// the merged campaign result (canonical form backing the byte-identity
/// guarantee across thread counts).
void write_shard_result(ByteWriter& w, const hafi::ShardResult& shard);
[[nodiscard]] hafi::ShardResult read_shard_result(ByteReader& r);

void write_campaign_result(ByteWriter& w, const hafi::CampaignResult& result);
[[nodiscard]] hafi::CampaignResult read_campaign_result(ByteReader& r);

// --- content fingerprints -------------------------------------------------

/// Hash of the canonical payload (serialize + FNV-1a). Identical structure
/// => identical fingerprint, independent of how the object was built.
[[nodiscard]] std::uint64_t fingerprint(const netlist::Netlist& n);
[[nodiscard]] std::uint64_t fingerprint(const sim::Trace& t);
[[nodiscard]] std::uint64_t fingerprint(const mate::MateSet& set);

// --- framing --------------------------------------------------------------

/// Wrap a payload in the versioned, checksummed artifact frame.
[[nodiscard]] std::vector<std::uint8_t> frame_artifact(
    std::string_view type_tag, std::span<const std::uint8_t> payload);

/// Unwrap a frame; nullopt if the magic, version, tag or checksum does not
/// match (corrupt or foreign file — callers treat it as absent).
[[nodiscard]] std::optional<std::vector<std::uint8_t>> unframe_artifact(
    std::string_view type_tag, std::span<const std::uint8_t> file);

} // namespace ripple::pipeline
