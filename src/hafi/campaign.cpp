#include "hafi/campaign.hpp"

#include <atomic>
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

/// Default shard size: aim for enough shards that checkpoints stay
/// fine-grained and a window of kWindowShards shards holds many passes of
/// points, but keep shards large enough that the per-shard bookkeeping (hook
/// calls, checkpoint artifacts) stays negligible. The size depends only on
/// the point count — never on the thread count — so shard boundaries (and
/// therefore checkpoint artifacts) are stable across --threads values.
/// Generous shards stay aligned up to the 63-lane batch width: passes pack
/// whole windows, but another size would change the shard partition and so
/// every checkpoint key.
std::size_t auto_shard_size(std::size_t num_points) {
  constexpr std::size_t kTargetShards = 64;
  constexpr std::size_t kMaxShardSize = 504; // 8 full 63-lane passes
  std::size_t size = (num_points + kTargetShards - 1) / kTargetShards;
  if (size >= kExperimentLanes / 2) {
    size = (size + kExperimentLanes - 1) / kExperimentLanes * kExperimentLanes;
  }
  return std::clamp<std::size_t>(size, 1, kMaxShardSize);
}

/// The deterministic merge: shard-index order, independent of completion
/// order, thread count and resume pattern, so the result is byte-identical
/// for any --threads value. Throws SoundnessError when a pruned experiment
/// executed to a non-benign outcome (Validate mode).
CampaignResult merge_shards(const CampaignPlan& plan,
                            const std::vector<ShardResult>& shards) {
  CampaignResult result;
  result.total = plan.points.size();
  result.experiments.reserve(plan.points.size());
  std::vector<SoundnessViolation> violations;
  for (std::size_t s = 0; s < shards.size(); ++s) {
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
  const netlist::Netlist& n = *target_.netlist;

  // Pruning decisions map each flop to its fault row of the MATE set; a
  // Baseline campaign consults none. Every batch pass carries its own golden
  // lane.
  static const mate::MateSet kNoMates;
  const mate::MateSet& mates =
      config_.mode == CampaignMode::Baseline ? kNoMates : *mates_;
  std::unordered_map<FlopId, std::size_t> fault_index;
  for (std::size_t i = 0; i < mates.faulty_wires.size(); ++i) {
    const netlist::Wire& w = n.wire(mates.faulty_wires[i]);
    RIPPLE_CHECK(w.driver_kind == netlist::DriverKind::Flop,
                 "campaign MATE sets must target flop outputs");
    fault_index.emplace(w.driver_flop, i);
  }

  const std::size_t num_shards = plan.num_shards();
  std::vector<ShardResult> shards(num_shards);
  std::vector<bool> resumed(num_shards, false);

  // Per-shard resolution, share of the pass time and the window's engine
  // counts, reported through ShardProgress (so all zero for resumed shards).
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

  std::mutex hook_mutex; // serializes store/progress hook invocations
  std::size_t shards_done = 0;
  const auto emit_progress = [&](std::size_t s) {
    // Once passes run, the caller holds hook_mutex.
    ++shards_done;
    if (!hooks.progress) return;
    ShardProgress p = counts[s];
    p.shard = s;
    p.shards_done = shards_done;
    p.num_shards = num_shards;
    p.resumed = resumed[s];
    hooks.progress(p);
  };

  // Resumed shards report first, in shard-index order. A fully resumed
  // campaign reads no trace and runs no pass.
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (resumed[s]) emit_progress(s);
  }
  if (pending.empty()) return merge_shards(plan, shards);

  // One fan-out for the label blocks and the batch passes: the host's
  // executor, or a private ThreadPool made on first use. One pass per
  // scheduling step (grain 1): a pass is thousands of gate sweeps.
  std::optional<ThreadPool> pool;
  const ShardExecutor execute =
      hooks.execute
          ? hooks.execute
          : ShardExecutor([&](std::size_t count,
                              const std::function<void(std::size_t)>& task) {
              if (!pool) pool.emplace(config_.threads);
              pool->parallel_for_index(count, task, 1);
            });

  // --- golden run ---------------------------------------------------------
  // Streamed once. Each chunk goes to the capture of the golden states the
  // passes start from, to the MATEs — checked on the fault-free run, as the
  // FPGA fabric would online — and then to the confinement sweep.
  sim::WireCapture capture(golden_->num_cycles(), GoldenSnapshots::wires(n));
  mate::BenignMaskSink triggers(mates, golden_->num_cycles());
  sim::TeeSource tapped(*golden_, {&capture, &triggers});
  // The label sweep's block tasks share the fan-out with the passes; their
  // thread-seconds go to the first pending shard's progress record.
  double label_seconds = 0.0;
  const ShardExecutor timed_labels =
      [&](std::size_t count, const std::function<void(std::size_t)>& task) {
        std::vector<double> seconds(count);
        execute(count, [&](std::size_t b) {
          const Stopwatch watch;
          task(b);
          seconds[b] = watch.seconds();
        });
        for (const double s : seconds) label_seconds += s;
      };
  const std::vector<BitVec> confined = confined_masks(n, tapped, timed_labels);
  counts[pending.front()].label_seconds = label_seconds;
  const std::vector<BitVec> benign = triggers.take();
  const GoldenSnapshots snapshots(n, capture.take());
  const bool validate = config_.mode == CampaignMode::Validate;

  // --- windows --------------------------------------------------------------
  // kWindowShards consecutive pending shards pack their lane points into
  // shared passes. Windows follow the pending list, so they differ between
  // resume patterns; only the engine counters see them.
  const std::size_t num_windows =
      (pending.size() + kWindowShards - 1) / kWindowShards;
  const auto window_shards = [&](std::size_t w) {
    const std::size_t begin = w * kWindowShards;
    return std::span<const std::size_t>(pending).subspan(
        begin, std::min(kWindowShards, pending.size() - begin));
  };

  // Pruning decisions first, so a pruned point stays pruned, then the
  // label-resolved points (executed, Benign); the rest take a lane. A
  // window's lane points, stable-sorted by injection cycle, are cut into
  // passes of 63: a pass starts from the golden state of its first
  // injection, so its mates inject close behind.
  struct Lane {
    std::size_t shard;
    std::size_t experiment; // index into the shard's experiments
  };
  struct Window {
    std::vector<Lane> lanes;
    std::size_t first_pass = 0;
    std::size_t num_passes = 0;
  };
  struct Pass {
    std::size_t window;
    std::size_t begin, end; // the window's lanes [begin, end)
    BatchRunStats stats;    // written by the pass's task
    double seconds = 0.0;
  };
  std::vector<Window> windows(num_windows);
  std::vector<Pass> passes;
  const auto experiment_of = [&](const Lane& lane) -> Experiment& {
    return shards[lane.shard].experiments[lane.experiment];
  };
  for (std::size_t w = 0; w < num_windows; ++w) {
    Window& window = windows[w];
    for (const std::size_t s : window_shards(w)) {
      ShardResult& result = shards[s];
      ShardProgress& stats = counts[s];
      result.shard = static_cast<std::uint32_t>(s);
      const std::span<const InjectionPoint> points = plan.shard(s);
      result.experiments.reserve(points.size());
      for (const InjectionPoint& point : points) {
        Experiment exp;
        exp.point = point;
        const auto fault = fault_index.find(point.flop);
        exp.pruned = fault != fault_index.end() &&
                     benign[fault->second].get(point.cycle);
        if (!exp.pruned && confined[point.flop.index()].get(point.cycle)) {
          exp.executed = true;
          ++stats.confined;
        } else if (validate || !exp.pruned) {
          window.lanes.push_back(Lane{s, result.experiments.size()});
          ++stats.executed;
        }
        result.experiments.push_back(exp);
      }
    }
    std::stable_sort(window.lanes.begin(), window.lanes.end(),
                     [&](const Lane& a, const Lane& b) {
                       return experiment_of(a).point.cycle <
                              experiment_of(b).point.cycle;
                     });
    window.first_pass = passes.size();
    for (std::size_t b = 0; b < window.lanes.size(); b += kExperimentLanes) {
      passes.push_back(Pass{
          w, b, std::min(window.lanes.size(), b + kExperimentLanes), {}, 0.0});
    }
    window.num_passes = passes.size() - window.first_pass;
  }
  std::vector<std::atomic<std::size_t>> passes_left(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    passes_left[w].store(windows[w].num_passes, std::memory_order_relaxed);
  }

  // A finished window: its engine counts go to its first shard, each shard
  // gets its lane points' share of the passes' thread-seconds, and every
  // shard is stored and reported.
  const auto finish_window = [&](std::size_t w) {
    const Window& window = windows[w];
    const std::span<const std::size_t> members = window_shards(w);
    ShardProgress& engine = counts[members.front()];
    double seconds = 0.0;
    for (std::size_t i = 0; i < window.num_passes; ++i) {
      const Pass& pass = passes[window.first_pass + i];
      ++engine.dut_passes;
      engine.lane_slots += kExperimentLanes;
      engine.lanes += pass.stats.lanes;
      engine.pass_cycles += pass.stats.cycles;
      engine.lanes_retired_early += pass.stats.lanes_retired_early;
      engine.lane_cycles_saved += pass.stats.lane_cycles_saved;
      engine.lane_cycles += pass.stats.lane_cycles;
      seconds += pass.seconds;
    }
    for (const std::size_t s : members) {
      counts[s].seconds =
          window.lanes.empty()
              ? 0.0
              : seconds * static_cast<double>(counts[s].executed) /
                    static_cast<double>(window.lanes.size());
    }
    std::lock_guard lock(hook_mutex);
    for (const std::size_t s : members) {
      obs::Span span("hafi", "shard");
      if (span.active()) span.set_detail(strprintf("shard %zu", s));
      if (hooks.store) hooks.store(shards[s]);
      emit_progress(s);
    }
  };

  for (std::size_t w = 0; w < num_windows; ++w) {
    if (windows[w].num_passes == 0) finish_window(w);
  }

  // One task per pass, window-major. Each pass boots its own DUT; the task
  // that finishes a window's last pass stores and reports the window.
  const auto run_pass = [&](std::size_t index) {
    Pass& pass = passes[index];
    const std::vector<Lane>& lanes = windows[pass.window].lanes;
    obs::Span span("hafi", "dut_pass");
    Stopwatch watch;
    std::vector<InjectionPoint> points;
    points.reserve(pass.end - pass.begin);
    for (std::size_t i = pass.begin; i < pass.end; ++i) {
      points.push_back(experiment_of(lanes[i]).point);
    }
    if (span.active()) {
      span.set_detail(strprintf(
          "%zu lanes from cycle %llu", points.size(),
          static_cast<unsigned long long>(points.front().cycle)));
    }
    const std::vector<Outcome> outcomes = target_.batch_factory()->run(
        points, config_.run_cycles, &pass.stats, &snapshots);
    for (std::size_t i = pass.begin; i < pass.end; ++i) {
      Experiment& exp = experiment_of(lanes[i]);
      exp.executed = true;
      exp.outcome = outcomes[i - pass.begin];
    }
    pass.seconds = watch.seconds();
    if (passes_left[pass.window].fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
      finish_window(pass.window);
    }
  };
  if (!passes.empty()) execute(passes.size(), run_pass);
  return merge_shards(plan, shards);
}

} // namespace ripple::hafi
