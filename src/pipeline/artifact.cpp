#include "pipeline/artifact.hpp"

#include "util/hash.hpp"

namespace ripple::pipeline {
namespace {

constexpr std::string_view kMagic = "RPLA";

void write_wire_id(ByteWriter& w, WireId id) { w.u32(id.value()); }

[[nodiscard]] WireId read_wire_id(ByteReader& r, std::size_t num_wires) {
  const WireId id{r.u32()};
  RIPPLE_CHECK(id.index() < num_wires, "wire id out of range in artifact");
  return id;
}

void write_wire_ids(ByteWriter& w, std::span<const WireId> ids) {
  w.u64(ids.size());
  for (WireId id : ids) write_wire_id(w, id);
}

[[nodiscard]] std::vector<WireId> read_wire_ids(ByteReader& r,
                                                std::size_t num_wires) {
  const std::size_t n = r.count(4);
  std::vector<WireId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(read_wire_id(r, num_wires));
  return ids;
}

void write_cube(ByteWriter& w, const mate::Cube& cube) {
  w.u64(cube.size());
  for (const mate::Literal& l : cube.literals()) {
    write_wire_id(w, l.wire);
    w.b(l.value);
  }
}

[[nodiscard]] mate::Cube read_cube(ByteReader& r) {
  const std::size_t n = r.count(5);
  std::vector<mate::Literal> lits;
  lits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const WireId wire{r.u32()};
    const bool value = r.b();
    lits.push_back(mate::Literal{wire, value});
  }
  return mate::Cube{std::move(lits)};
}

} // namespace

// --- netlist --------------------------------------------------------------

void write_netlist(ByteWriter& w, const netlist::Netlist& n) {
  w.str(n.name());

  w.u64(n.num_wires());
  for (WireId id : n.all_wires()) {
    const netlist::Wire& wire = n.wire(id);
    w.str(wire.name);
    w.b(wire.driver_kind == netlist::DriverKind::PrimaryInput);
  }

  w.u64(n.num_gates());
  for (GateId id : n.all_gates()) {
    const netlist::Gate& g = n.gate(id);
    w.u8(static_cast<std::uint8_t>(g.kind));
    w.u64(g.inputs.size());
    for (WireId in : g.inputs) write_wire_id(w, in);
    write_wire_id(w, g.output);
  }

  w.u64(n.num_flops());
  for (FlopId id : n.all_flops()) {
    const netlist::Flop& f = n.flop(id);
    w.str(f.name);
    w.b(f.init);
    write_wire_id(w, f.q);
    write_wire_id(w, f.d);
  }

  write_wire_ids(w, n.primary_outputs());
}

netlist::Netlist read_netlist(ByteReader& r) {
  netlist::Netlist n(r.str());

  // Wires in id order; primary inputs are re-registered in the same relative
  // order they were declared (input declaration follows wire creation).
  const std::size_t num_wires = r.count(2);
  for (std::size_t i = 0; i < num_wires; ++i) {
    const std::string name = r.str();
    const bool is_input = r.b();
    const WireId id = is_input ? n.add_input(name) : n.add_wire(name);
    RIPPLE_CHECK(id.index() == i, "non-dense wire ids in artifact");
  }

  const std::size_t num_gates = r.count(6);
  for (std::size_t i = 0; i < num_gates; ++i) {
    const std::uint8_t kind_raw = r.u8();
    RIPPLE_CHECK(kind_raw < cell::kKindCount, "bad cell kind in artifact");
    const auto kind = static_cast<cell::Kind>(kind_raw);
    const std::size_t num_inputs = r.count(4);
    std::vector<WireId> inputs;
    inputs.reserve(num_inputs);
    for (std::size_t p = 0; p < num_inputs; ++p) {
      inputs.push_back(read_wire_id(r, num_wires));
    }
    const WireId output = read_wire_id(r, num_wires);
    const GateId id = n.add_gate(kind, inputs, output);
    RIPPLE_CHECK(id.index() == i, "non-dense gate ids in artifact");
  }

  const std::size_t num_flops = r.count(10);
  struct PendingD {
    FlopId flop;
    WireId d;
  };
  std::vector<PendingD> pending;
  pending.reserve(num_flops);
  for (std::size_t i = 0; i < num_flops; ++i) {
    const std::string name = r.str();
    const bool init = r.b();
    const WireId q = read_wire_id(r, num_wires);
    const WireId d = read_wire_id(r, num_wires);
    const FlopId id = n.adopt_flop(name, init, q);
    RIPPLE_CHECK(id.index() == i, "non-dense flop ids in artifact");
    pending.push_back({id, d});
  }
  // D nets may be driven by any wire, including later flop Qs; connect after
  // all flops exist (state feedback loops).
  for (const PendingD& p : pending) n.connect_flop(p.flop, p.d);

  for (WireId out : read_wire_ids(r, num_wires)) n.mark_output(out);

  n.check();
  return n;
}

// --- trace chunks ---------------------------------------------------------

// A trace chunk: wire-major cycle words. Wire names are not carried — a
// chunk's identity is its cache key (netlist fingerprint, workload, chunk
// index and length).
void write_transposed_trace(ByteWriter& w, const sim::TransposedTrace& t) {
  w.u64(t.num_wires());
  w.u64(t.num_cycles());
  for (std::uint64_t word : t.words()) w.u64(word);
}

sim::TransposedTrace read_transposed_trace(ByteReader& r) {
  const std::size_t num_wires = static_cast<std::size_t>(r.u64());
  const std::size_t num_cycles = static_cast<std::size_t>(r.u64());
  const std::size_t words = num_wires * ((num_cycles + 63) / 64);
  RIPPLE_CHECK(words <= r.remaining() / 8,
               "transposed-trace word count exceeds payload size");
  std::vector<std::uint64_t> bits;
  bits.reserve(words);
  for (std::size_t i = 0; i < words; ++i) bits.push_back(r.u64());
  return sim::TransposedTrace::from_words(num_wires, num_cycles,
                                          std::move(bits));
}

// --- MATE sets / search results / selections ------------------------------

void write_mate_set(ByteWriter& w, const mate::MateSet& set) {
  w.u64(set.mates.size());
  for (const mate::Mate& m : set.mates) {
    write_cube(w, m.cube);
    write_wire_ids(w, m.masked_wires);
  }
  write_wire_ids(w, set.faulty_wires);
}

mate::MateSet read_mate_set(ByteReader& r) {
  mate::MateSet set;
  const std::size_t n = r.count();
  set.mates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mate::Mate m;
    m.cube = read_cube(r);
    m.masked_wires = read_wire_ids(r, WireId::kInvalid);
    set.mates.push_back(std::move(m));
  }
  set.faulty_wires = read_wire_ids(r, WireId::kInvalid);
  return set;
}

void write_search_result(ByteWriter& w, const mate::SearchResult& result) {
  write_mate_set(w, result.set);
  w.u64(result.outcomes.size());
  for (const mate::WireOutcome& o : result.outcomes) {
    write_wire_id(w, o.wire);
    w.u8(static_cast<std::uint8_t>(o.status));
    w.u64(o.cone_gates);
    w.u64(o.border_wires);
    w.u64(o.num_paths);
    w.u64(o.candidates_tried);
    w.u64(o.mates_found);
    w.f64(o.seconds);
  }
  w.u64(result.total_candidates);
  w.u64(result.total_mates);
  w.u64(result.unmaskable_wires);
  w.f64(result.seconds);
  w.u64(result.threads_used);
  w.u64(result.dedup_classes);
  w.f64(result.busy_seconds);
}

mate::SearchResult read_search_result(ByteReader& r) {
  mate::SearchResult result;
  result.set = read_mate_set(r);
  const std::size_t n = r.count(10);
  result.outcomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mate::WireOutcome o;
    o.wire = WireId{r.u32()};
    const std::uint8_t status = r.u8();
    RIPPLE_CHECK(status <= static_cast<std::uint8_t>(
                               mate::WireStatus::PathBudget),
                 "bad wire status in artifact");
    o.status = static_cast<mate::WireStatus>(status);
    o.cone_gates = static_cast<std::size_t>(r.u64());
    o.border_wires = static_cast<std::size_t>(r.u64());
    o.num_paths = static_cast<std::size_t>(r.u64());
    o.candidates_tried = static_cast<std::size_t>(r.u64());
    o.mates_found = static_cast<std::size_t>(r.u64());
    o.seconds = r.f64();
    result.outcomes.push_back(o);
  }
  result.total_candidates = static_cast<std::size_t>(r.u64());
  result.total_mates = static_cast<std::size_t>(r.u64());
  result.unmaskable_wires = static_cast<std::size_t>(r.u64());
  result.seconds = r.f64();
  result.threads_used = static_cast<std::size_t>(r.u64());
  result.dedup_classes = static_cast<std::size_t>(r.u64());
  result.busy_seconds = r.f64();
  return result;
}

void write_selection(ByteWriter& w, const mate::SelectionResult& sel) {
  w.u64(sel.ranking.size());
  for (std::size_t i : sel.ranking) w.u64(i);
  w.u64(sel.hits.size());
  for (std::size_t h : sel.hits) w.u64(h);
}

mate::SelectionResult read_selection(ByteReader& r) {
  mate::SelectionResult sel;
  const std::size_t n = r.count(8);
  sel.ranking.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sel.ranking.push_back(static_cast<std::size_t>(r.u64()));
  }
  const std::size_t h = r.count(8);
  sel.hits.reserve(h);
  for (std::size_t i = 0; i < h; ++i) {
    sel.hits.push_back(static_cast<std::size_t>(r.u64()));
  }
  return sel;
}

void write_eval_result(ByteWriter& w, const mate::EvalResult& eval) {
  w.u64(eval.num_cycles);
  w.u64(eval.num_faulty_wires);
  w.u64(eval.masked_faults);
  w.u64(eval.effective_mates);
  w.f64(eval.avg_inputs);
  w.f64(eval.sd_inputs);
  w.u64(eval.per_mate.size());
  for (const mate::MateTraceStats& m : eval.per_mate) {
    w.u64(m.triggers);
    w.u64(m.masked_total);
  }
}

mate::EvalResult read_eval_result(ByteReader& r) {
  mate::EvalResult eval;
  eval.num_cycles = static_cast<std::size_t>(r.u64());
  eval.num_faulty_wires = static_cast<std::size_t>(r.u64());
  eval.masked_faults = static_cast<std::size_t>(r.u64());
  eval.effective_mates = static_cast<std::size_t>(r.u64());
  eval.avg_inputs = r.f64();
  eval.sd_inputs = r.f64();
  const std::size_t num_mates = r.count(16);
  eval.per_mate.reserve(num_mates);
  for (std::size_t i = 0; i < num_mates; ++i) {
    mate::MateTraceStats m;
    m.triggers = static_cast<std::size_t>(r.u64());
    m.masked_total = static_cast<std::size_t>(r.u64());
    eval.per_mate.push_back(m);
  }
  return eval;
}

// --- campaign shards & results --------------------------------------------

namespace {

void write_experiment(ByteWriter& w, const hafi::Experiment& e) {
  w.u32(e.point.flop.value());
  w.u64(e.point.cycle);
  w.b(e.pruned);
  w.b(e.executed);
  w.u8(static_cast<std::uint8_t>(e.outcome));
}

[[nodiscard]] hafi::Experiment read_experiment(ByteReader& r) {
  hafi::Experiment e;
  e.point.flop = FlopId{r.u32()};
  e.point.cycle = r.u64();
  e.pruned = r.b();
  e.executed = r.b();
  const std::uint8_t outcome = r.u8();
  RIPPLE_CHECK(outcome <= static_cast<std::uint8_t>(hafi::Outcome::Sdc),
               "bad outcome in campaign artifact");
  e.outcome = static_cast<hafi::Outcome>(outcome);
  return e;
}

constexpr std::size_t kExperimentBytes = 4 + 8 + 1 + 1 + 1;

} // namespace

void write_shard_result(ByteWriter& w, const hafi::ShardResult& shard) {
  w.u32(shard.shard);
  w.u64(shard.experiments.size());
  for (const hafi::Experiment& e : shard.experiments) write_experiment(w, e);
}

hafi::ShardResult read_shard_result(ByteReader& r) {
  hafi::ShardResult shard;
  shard.shard = r.u32();
  const std::size_t n = r.count(kExperimentBytes);
  shard.experiments.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shard.experiments.push_back(read_experiment(r));
  }
  return shard;
}

void write_campaign_result(ByteWriter& w, const hafi::CampaignResult& result) {
  w.u64(result.experiments.size());
  for (const hafi::Experiment& e : result.experiments) write_experiment(w, e);
  w.u64(result.total);
  w.u64(result.pruned);
  w.u64(result.executed);
  w.u64(result.benign);
  w.u64(result.latent);
  w.u64(result.sdc);
  w.u64(result.pruned_confirmed);
}

hafi::CampaignResult read_campaign_result(ByteReader& r) {
  hafi::CampaignResult result;
  const std::size_t n = r.count(kExperimentBytes);
  result.experiments.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.experiments.push_back(read_experiment(r));
  }
  result.total = static_cast<std::size_t>(r.u64());
  result.pruned = static_cast<std::size_t>(r.u64());
  result.executed = static_cast<std::size_t>(r.u64());
  result.benign = static_cast<std::size_t>(r.u64());
  result.latent = static_cast<std::size_t>(r.u64());
  result.sdc = static_cast<std::size_t>(r.u64());
  result.pruned_confirmed = static_cast<std::size_t>(r.u64());
  return result;
}

// --- fingerprints ---------------------------------------------------------

std::uint64_t fingerprint(const netlist::Netlist& n) {
  ByteWriter w;
  write_netlist(w, n);
  return hash_bytes(w.bytes());
}

std::uint64_t fingerprint(const sim::Trace& t) {
  ByteWriter w;
  w.u64(t.num_wires());
  for (std::size_t i = 0; i < t.num_wires(); ++i) w.str(t.wire_name(i));
  w.u64(t.num_cycles());
  for (std::size_t c = 0; c < t.num_cycles(); ++c) {
    for (std::uint64_t word : t.cycle_values(c).words()) w.u64(word);
  }
  return hash_bytes(w.bytes());
}

std::uint64_t fingerprint(const mate::MateSet& set) {
  ByteWriter w;
  write_mate_set(w, set);
  return hash_bytes(w.bytes());
}

// --- framing --------------------------------------------------------------

std::vector<std::uint8_t> frame_artifact(std::string_view type_tag,
                                         std::span<const std::uint8_t> payload) {
  ByteWriter w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kArtifactVersion);
  w.str(type_tag);
  w.u64(payload.size());
  Hasher h;
  h.update_bytes(payload);
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  ByteWriter tail;
  tail.u64(h.digest());
  const auto& tail_bytes = tail.bytes();
  out.insert(out.end(), tail_bytes.begin(), tail_bytes.end());
  return out;
}

std::optional<std::vector<std::uint8_t>> unframe_artifact(
    std::string_view type_tag, std::span<const std::uint8_t> file) {
  try {
    ByteReader r(file);
    for (char c : kMagic) {
      if (r.u8() != static_cast<std::uint8_t>(c)) return std::nullopt;
    }
    if (r.u32() != kArtifactVersion) return std::nullopt;
    if (r.str() != type_tag) return std::nullopt;
    const std::uint64_t size = r.u64();
    if (size + 8 != r.remaining()) return std::nullopt;
    std::vector<std::uint8_t> payload = r.blob(size);
    if (r.u64() != hash_bytes(payload)) return std::nullopt;
    r.expect_done();
    return payload;
  } catch (const Error&) {
    return std::nullopt;
  }
}

} // namespace ripple::pipeline
