#include "hafi/campaign.hpp"

#include <mutex>
#include <unordered_map>

#include "hafi/confine.hpp"
#include "mate/stream.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace ripple::hafi {
namespace {

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Benign: return "benign";
    case Outcome::Latent: return "latent";
    case Outcome::Sdc: return "SDC";
  }
  return "?";
}

/// Default shard size: aim for enough shards that the fan-out load-balances
/// well past 8 workers, but keep shards large enough that the per-shard
/// bookkeeping (hook calls, checkpoint artifacts) stays negligible. The size
/// depends only on the point count — never on the thread count — so shard
/// boundaries (and therefore checkpoint artifacts) are stable across
/// --threads values. Generous shards are aligned up to the 63-lane batch
/// width so the default plan of a large campaign packs full passes; small
/// campaigns keep fine-grained shards for thread-level parallelism.
std::size_t auto_shard_size(std::size_t num_points) {
  constexpr std::size_t kTargetShards = 64;
  constexpr std::size_t kMaxShardSize = 504; // 8 full 63-lane passes
  std::size_t size = (num_points + kTargetShards - 1) / kTargetShards;
  if (size >= kExperimentLanes / 2) {
    size = (size + kExperimentLanes - 1) / kExperimentLanes * kExperimentLanes;
  }
  return std::clamp<std::size_t>(size, 1, kMaxShardSize);
}

} // namespace

std::string_view mode_name(CampaignMode mode) {
  switch (mode) {
    case CampaignMode::Baseline: return "baseline";
    case CampaignMode::Pruned: return "pruned";
    case CampaignMode::Validate: return "validate";
  }
  return "?";
}

Campaign::Campaign(CampaignTarget target, CampaignConfig config,
                   sim::TraceSource* golden, const mate::MateSet* mates)
    : target_(std::move(target)), config_(config), mates_(mates),
      golden_(golden) {
  RIPPLE_CHECK(target_.netlist != nullptr, "campaign needs a netlist");
  RIPPLE_CHECK(target_.batch_factory != nullptr,
               "campaign needs a 64-lane batch DUT factory");
  RIPPLE_CHECK(config_.run_cycles > 0, "campaign needs at least one cycle");
  RIPPLE_CHECK(mates_ != nullptr || config_.mode == CampaignMode::Baseline,
               "campaign mode '", mode_name(config_.mode),
               "' needs a MATE set");
  RIPPLE_CHECK(golden_ != nullptr, "campaign mode '", mode_name(config_.mode),
               "' needs a golden run");
  RIPPLE_CHECK(golden_->num_cycles() == config_.run_cycles &&
                   golden_->num_wires() == target_.netlist->num_wires(),
               "golden run (", golden_->num_cycles(), " cycles x ",
               golden_->num_wires(), " wires) does not match the campaign (",
               config_.run_cycles, " cycles x ", target_.netlist->num_wires(),
               " wires)");

  const netlist::Netlist& n = *target_.netlist;
  const std::size_t space = n.num_flops() * config_.run_cycles;
  if (config_.sample == 0 || config_.sample >= space) {
    plan_.points.reserve(space);
    for (FlopId f : n.all_flops()) {
      for (std::size_t c = 0; c < config_.run_cycles; ++c) {
        plan_.points.push_back(InjectionPoint{f, c});
      }
    }
  } else {
    Rng rng(config_.seed);
    plan_.points.reserve(config_.sample);
    for (std::size_t i = 0; i < config_.sample; ++i) {
      const std::uint64_t flat = rng.next_below(space);
      plan_.points.push_back(InjectionPoint{
          FlopId{static_cast<FlopId::value_type>(flat / config_.run_cycles)},
          flat % config_.run_cycles});
    }
  }
  plan_.shard_size = config_.shard_size != 0
                         ? config_.shard_size
                         : auto_shard_size(plan_.points.size());
}

CampaignResult Campaign::run(const ShardHooks& hooks) {
  const CampaignPlan& plan = plan_;
  const bool pruning = config_.mode != CampaignMode::Baseline;

  // Pruning decisions map each flop to its fault row of the MATE set.
  // Baseline needs none; every batch pass carries its own golden lane.
  std::unordered_map<FlopId, std::size_t> fault_index;
  if (pruning) {
    for (std::size_t i = 0; i < mates_->faulty_wires.size(); ++i) {
      const netlist::Wire& w = target_.netlist->wire(mates_->faulty_wires[i]);
      RIPPLE_CHECK(w.driver_kind == netlist::DriverKind::Flop,
                   "campaign MATE sets must target flop outputs");
      fault_index.emplace(w.driver_flop, i);
    }
  }

  // --- shard fan-out --------------------------------------------------------
  const std::size_t num_shards = plan.num_shards();
  std::vector<ShardResult> shards(num_shards);
  std::vector<bool> resumed(num_shards, false);
  std::vector<double> shard_seconds(num_shards, 0.0);

  // Per-shard resolution and engine counts, reported through ShardProgress
  // (so all zero for resumed shards). Indexed by shard, so workers write
  // without synchronization.
  std::vector<ShardProgress> counts(num_shards);

  // Resume pass: collect previously persisted shards before spinning up
  // workers. A stale artifact (points that no longer match the plan) is
  // discarded, not trusted.
  std::vector<std::size_t> pending;
  pending.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (hooks.load) {
      if (std::optional<ShardResult> loaded = hooks.load(s)) {
        const std::span<const InjectionPoint> points = plan.shard(s);
        const bool matches =
            loaded->shard == s && loaded->experiments.size() == points.size() &&
            std::equal(points.begin(), points.end(),
                       loaded->experiments.begin(),
                       [](const InjectionPoint& p, const Experiment& e) {
                         return p == e.point;
                       });
        if (matches) {
          shards[s] = std::move(*loaded);
          resumed[s] = true;
          continue;
        }
      }
    }
    pending.push_back(s);
  }

  // One fan-out for the label blocks and the shards: the host's executor,
  // or a private ThreadPool made on first use. One shard per scheduling step
  // (grain 1): shard sizes already amortize the claim cost, and shard wall
  // times can be skewed by pruning.
  std::optional<ThreadPool> pool;
  const ShardExecutor execute =
      hooks.execute
          ? hooks.execute
          : ShardExecutor([&](std::size_t n,
                              const std::function<void(std::size_t)>& task) {
              if (!pool) pool.emplace(config_.threads);
              pool->parallel_for_index(n, task, 1);
            });

  // --- golden run ---------------------------------------------------------
  // The MATEs checked on the fault-free run, as the FPGA fabric would online:
  // one cycle bitmask of proven-benign faults per fault row. Only shards
  // that execute consult it, so a fully resumed campaign reads no trace.
  std::vector<BitVec> benign;
  if (pruning && !pending.empty()) {
    benign = mate::benign_masks(*mates_, *golden_);
  }
  const auto is_pruned = [&](const InjectionPoint& point) {
    if (!pruning) return false;
    const auto it = fault_index.find(point.flop);
    return it != fault_index.end() && benign[it->second].get(point.cycle);
  };
  const bool validate = config_.mode == CampaignMode::Validate;

  // The confinement labels resolve points without a lane, which can save a
  // pass only in a shard with more than one pass of points to execute
  // (ceil(k / 63) = 1 for every k <= 63); otherwise the trace is not read
  // for them. MATE pruning is decided first, so a pruned point stays pruned.
  const auto needs_lane = [&](const InjectionPoint& point) {
    return validate || !is_pruned(point);
  };
  const bool label =
      std::any_of(pending.begin(), pending.end(), [&](std::size_t s) {
        const std::span<const InjectionPoint> points = plan.shard(s);
        return static_cast<std::size_t>(std::count_if(
                   points.begin(), points.end(), needs_lane)) >
               kExperimentLanes;
      });
  std::vector<BitVec> confined;
  if (label) confined = confined_masks(*target_.netlist, *golden_, execute);

  std::mutex hook_mutex; // serializes store/progress hook invocations
  std::size_t shards_done = 0;

  const auto emit_progress = [&](std::size_t s) {
    // Caller holds hook_mutex.
    ++shards_done;
    if (!hooks.progress) return;
    ShardProgress p = counts[s];
    p.shard = s;
    p.shards_done = shards_done;
    p.num_shards = num_shards;
    p.seconds = shard_seconds[s];
    p.resumed = resumed[s];
    hooks.progress(p);
  };

  {
    std::lock_guard lock(hook_mutex);
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (resumed[s]) emit_progress(s);
    }
  }

  const auto execute_shard = [&](std::size_t pending_index) {
    const std::size_t s = pending[pending_index];
    obs::Span shard_span("hafi", "shard");
    if (shard_span.active()) shard_span.set_detail(strprintf("shard %zu", s));
    Stopwatch watch;
    ShardResult& result = shards[s];
    result.shard = static_cast<std::uint32_t>(s);
    const std::span<const InjectionPoint> points = plan.shard(s);

    // Pruning decisions first, then the label-resolved points (executed,
    // Benign); the rest run in lanes, packed 63 at a time into batch passes.
    ShardProgress& stats = counts[s];
    result.experiments.reserve(points.size());
    std::vector<std::size_t> exec;
    exec.reserve(points.size());
    for (const InjectionPoint& point : points) {
      Experiment exp;
      exp.point = point;
      exp.pruned = is_pruned(point);
      if (!exp.pruned && !confined.empty() &&
          confined[point.flop.index()].get(point.cycle)) {
        exp.executed = true;
        ++stats.confined;
      } else if (needs_lane(point)) {
        exec.push_back(result.experiments.size());
      }
      result.experiments.push_back(exp);
    }

    stats.executed = exec.size();
    if (!exec.empty()) {
      const auto batch_dut = target_.batch_factory();
      std::vector<InjectionPoint> group;
      group.reserve(kExperimentLanes);
      for (std::size_t g = 0; g < exec.size(); g += kExperimentLanes) {
        const std::size_t end = std::min(exec.size(), g + kExperimentLanes);
        group.clear();
        for (std::size_t i = g; i < end; ++i) {
          group.push_back(result.experiments[exec[i]].point);
        }
        BatchRunStats pass;
        obs::Span pass_span("hafi", "dut_pass");
        if (pass_span.active()) {
          pass_span.set_detail(strprintf("%zu lanes", group.size()));
        }
        const std::vector<Outcome> outcomes =
            batch_dut->run(group, config_.run_cycles, &pass);
        for (std::size_t i = g; i < end; ++i) {
          Experiment& exp = result.experiments[exec[i]];
          exp.executed = true;
          exp.outcome = outcomes[i - g];
        }
        ++stats.dut_passes;
        stats.lane_slots += kExperimentLanes;
        stats.lanes_retired_early += pass.lanes_retired_early;
        stats.lane_cycles_saved += pass.lane_cycles_saved;
        stats.lane_cycles += pass.lane_cycles;
      }
    }
    shard_seconds[s] = watch.seconds();

    std::lock_guard lock(hook_mutex);
    if (hooks.store) hooks.store(result);
    emit_progress(s);
  };

  if (!pending.empty()) execute(pending.size(), execute_shard);

  // --- deterministic merge --------------------------------------------------
  // Shard-index order, independent of completion order, thread count and
  // resume pattern: the result is byte-identical for any --threads value.
  CampaignResult result;
  result.total = plan.points.size();
  result.experiments.reserve(plan.points.size());
  std::vector<SoundnessViolation> violations;
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (const Experiment& exp : shards[s].experiments) {
      if (exp.pruned) ++result.pruned;
      if (exp.executed) {
        ++result.executed;
        switch (exp.outcome) {
          case Outcome::Benign: ++result.benign; break;
          case Outcome::Latent: ++result.latent; break;
          case Outcome::Sdc: ++result.sdc; break;
        }
        if (exp.pruned) {
          if (exp.outcome == Outcome::Benign) {
            ++result.pruned_confirmed;
          } else {
            violations.push_back(SoundnessViolation{s, exp.point,
                                                    exp.outcome});
          }
        }
      }
      result.experiments.push_back(exp);
    }
  }

  if (!violations.empty()) {
    std::string report = strprintf(
        "MATE soundness violated: %zu pruned injection(s) executed to a "
        "non-benign outcome under validate mode",
        violations.size());
    std::size_t current_shard = violations.front().shard + 1; // force header
    for (const SoundnessViolation& v : violations) {
      if (v.shard != current_shard) {
        current_shard = v.shard;
        report += strprintf("\n  shard %zu [points %zu..%zu):",
                            v.shard, plan.shard_begin(v.shard),
                            plan.shard_end(v.shard));
      }
      report += strprintf("\n    flop %u, cycle %llu -> %.*s",
                          v.point.flop.value(),
                          static_cast<unsigned long long>(v.point.cycle),
                          static_cast<int>(outcome_name(v.outcome).size()),
                          outcome_name(v.outcome).data());
    }
    throw SoundnessError(std::move(report), std::move(violations));
  }
  return result;
}

} // namespace ripple::hafi
