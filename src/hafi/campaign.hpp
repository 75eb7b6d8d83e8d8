// Shard-parallel fault-injection campaign engine (Section 1.1 / Section 6).
//
// Emulates what an FPGA-based HAFI platform does: run the workload once
// (golden run), then re-run it once per fault-space point, flipping one flop
// in one cycle, and classify the outcome against the golden run. With a MATE
// set installed, injections whose fault the MATEs triggered on the golden
// run's trace prove benign are skipped — the paper's fault-space pruning —
// and can optionally still be executed to validate soundness.
//
// Every injection is independent, so the engine partitions the injection-
// point list into fixed shards, the unit of results and checkpoints, and
// packs the work of kWindowShards consecutive pending shards (a window)
// into shared 64-lane batch passes (lane 0 carries the golden run). Per
// window, MATE pruning is decided first; when some window has more than
// one pass of points to execute, the golden run's confinement labels
// (hafi/confine.hpp) then resolve every injection they prove Benign without
// a lane, recorded exactly as its execution would be. The remaining points
// are stable-sorted by injection cycle and cut into 63-lane passes, and a
// labelled campaign starts each pass from the golden state of its first
// injection cycle (GoldenSnapshots, captured by the labels' one stream of
// the golden run) instead of at reset. The passes fan out one task each,
// window by window, over a private ThreadPool or the host's executor; each
// boots its own BatchDut through the target's factory, and the task that
// finishes a window's last pass stores and reports its shards.
// A lane's outcome does not depend on its pass mates, and shards are merged
// in shard-index order, so the CampaignResult — including the
// per-experiment outcome list — is byte-identical for any thread count and
// any resume pattern (which may change the windows), and to the
// one-boot-per-experiment scalar oracle in tests/support.
// Shard hooks let callers persist finished shards (the pipeline layer stores
// them as versioned artifacts) and skip them on resume after an interrupt.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "hafi/batch_dut.hpp"
#include "mate/mate.hpp"
#include "netlist/netlist.hpp"
#include "sim/stream.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ripple::hafi {

/// What the campaign does with the MATE set.
enum class CampaignMode {
  Baseline, // no pruning: execute every sampled injection
  Pruned,   // skip injections a triggered MATE proves benign
  Validate, // execute pruned injections anyway; abort on a non-benign one
};

[[nodiscard]] std::string_view mode_name(CampaignMode mode);

/// The system a campaign injects into.
struct CampaignTarget {
  /// Sizes the fault space (flops x cycles) and maps MATE wires to flops.
  /// Borrowed: must outlive the campaign.
  const netlist::Netlist* netlist = nullptr;
  /// Boots the 64-lane DUT (same netlist) that executes the injections.
  BatchDutFactory batch_factory;
};

struct Experiment {
  InjectionPoint point;
  bool pruned = false; // a MATE proved it benign; skipped unless validating
  bool executed = false;
  Outcome outcome = Outcome::Benign;

  bool operator==(const Experiment&) const = default;
};

struct CampaignConfig {
  /// Cycles each run executes (golden and faulty alike).
  std::size_t run_cycles = 2000;
  /// Number of injection points sampled uniformly from flops x cycles;
  /// 0 = exhaustive (every flop, every cycle — large!).
  std::size_t sample = 1000;
  std::uint64_t seed = 1;
  /// Pruned and Validate require a MATE set (Campaign constructor).
  CampaignMode mode = CampaignMode::Baseline;
  /// Worker threads for the pass fan-out; 0 = hardware concurrency.
  /// Never affects results (shards merge in deterministic order).
  std::size_t threads = 0;
  /// Injection points per shard; 0 picks a size from the plan (deterministic
  /// in the point count, independent of the thread count).
  std::size_t shard_size = 0;

  bool operator==(const CampaignConfig&) const = default;
};

/// External fan-out of a campaign's work (its label blocks, then one task
/// per batch pass): run `task(i)` for every i in [0, n) on whatever workers
/// the host provides and return once all of them finished. Installed via
/// ShardHooks::execute; without one the campaign spins up a private
/// ThreadPool per run. The serve layer injects a fair shared scheduler here
/// so many concurrent campaigns multiplex one pool.
using ShardExecutor = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& task)>;

/// Pending shards whose lane points share batch passes. A constant: it
/// changes only how passes are packed, never a result.
inline constexpr std::size_t kWindowShards = 8;

/// The campaign's work list: the sampled (or exhaustive) injection points
/// plus the shard partition over them. Produced by the campaign itself from
/// the target's netlist and the config's run_cycles, sample, seed and
/// shard_size — never the mode or the thread count — so baseline and pruned
/// campaigns over one config inject the same points.
struct CampaignPlan {
  std::vector<InjectionPoint> points;
  std::size_t shard_size = 1; // resolved: never 0

  [[nodiscard]] std::size_t num_shards() const {
    return points.empty() ? 0 : (points.size() + shard_size - 1) / shard_size;
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t shard) const {
    return shard * shard_size;
  }
  [[nodiscard]] std::size_t shard_end(std::size_t shard) const {
    return std::min(points.size(), (shard + 1) * shard_size);
  }
  [[nodiscard]] std::span<const InjectionPoint> shard(
      std::size_t index) const {
    return std::span<const InjectionPoint>(points)
        .subspan(shard_begin(index), shard_end(index) - shard_begin(index));
  }
};

/// One finished shard: the experiments of plan.shard(shard), in plan order.
/// This is the unit of checkpointing — the pipeline layer persists it as a
/// versioned artifact and feeds it back through ShardHooks::load on resume.
struct ShardResult {
  std::uint32_t shard = 0;
  std::vector<Experiment> experiments;

  bool operator==(const ShardResult&) const = default;
};

/// A pruned injection that executed to a non-benign outcome under
/// CampaignMode::Validate — a MATE soundness violation.
struct SoundnessViolation {
  std::size_t shard = 0;
  InjectionPoint point;
  Outcome outcome = Outcome::Benign;
};

/// Raised by Campaign::run when Validate mode finds soundness violations.
/// what() carries a per-shard report (shard index, flop, cycle, outcome for
/// every violation) instead of the old bare counter mismatch.
class SoundnessError : public Error {
public:
  SoundnessError(std::string report, std::vector<SoundnessViolation> v)
      : Error(std::move(report)), violations_(std::move(v)) {}

  [[nodiscard]] const std::vector<SoundnessViolation>& violations() const {
    return violations_;
  }

private:
  std::vector<SoundnessViolation> violations_;
};

struct CampaignResult {
  std::vector<Experiment> experiments;

  std::size_t total = 0;
  std::size_t pruned = 0;       // skipped (or validated) thanks to MATEs
  std::size_t executed = 0;     // actually simulated
  std::size_t benign = 0;
  std::size_t latent = 0;
  std::size_t sdc = 0;
  /// Validate mode only: pruned experiments whose execution confirmed
  /// Benign. The engine aborts with SoundnessError otherwise, so a returned
  /// result always has pruned_confirmed == pruned.
  std::size_t pruned_confirmed = 0;
};

class Campaign {
public:
  /// `target` needs a netlist and a batch factory. `golden` is the
  /// fault-free run's trace, required in every mode: run_cycles cycles of
  /// every netlist wire, from which the confinement labels are read and on
  /// which the MATEs are checked the way the FPGA fabric checks them online.
  /// Pruned/Validate mode also needs `mates`, targeting flop Q wires of the
  /// netlist (ignored in Baseline mode). Both are borrowed (they must
  /// outlive the campaign); `golden` is streamed only by run(), and only
  /// when a shard executes: once for the MATEs (Pruned and Validate) and
  /// once for the labels and snapshots, when some window needs them. Throws ripple::Error on a missing or misshapen piece.
  Campaign(CampaignTarget target, CampaignConfig config,
           sim::TraceSource* golden, const mate::MateSet* mates = nullptr);

  /// The injection points and shard partition, built from the target's
  /// netlist on construction. Stable across runs for a fixed config, so
  /// baseline and pruned campaigns compare like for like.
  [[nodiscard]] const CampaignPlan& plan() const { return plan_; }

  /// Per-shard progress record, delivered to ShardHooks::progress: every
  /// resumed shard first (in shard-index order), then the executed shards
  /// window by window as windows finish, in shard-index order within one.
  struct ShardProgress {
    std::size_t shard = 0;
    std::size_t shards_done = 0; // including this one
    std::size_t num_shards = 0;
    /// This shard's share of its window's pass thread-seconds, in
    /// proportion to its lane points (0 for resumed shards).
    double seconds = 0.0;
    bool resumed = false;       // served by ShardHooks::load, not executed
    // How the shard's executed experiments were resolved (all zero for
    // resumed shards — nothing ran). A shard's experiments with `executed`
    // set number executed + confined.
    std::size_t executed = 0;   // simulated in a batch lane
    std::size_t confined = 0;   // proven Benign by the confinement labels
    // The engine work of the shard's window, reported once, on the window's
    // first shard, and zero on every other shard, so totals stay exact.
    std::size_t dut_passes = 0;  // gate-level batch passes
    std::size_t lane_slots = 0;  // experiment capacity those passes offered
    std::size_t lanes = 0;       // experiments they carried (the window's
                                 // executed)
    std::uint64_t pass_cycles = 0;       // cycles they simulated
    std::size_t lanes_retired_early = 0; // classified before the run ended
    std::uint64_t lane_cycles_saved = 0; // cycles skipped by early retirement
    LaneCycles lane_cycles;              // where the passes' lane-cycles went
  };

  /// Checkpoint/instrumentation hooks. All hooks are invoked with external
  /// synchronization (never concurrently); `store` and `progress` may run on
  /// the caller or any worker thread.
  struct ShardHooks {
    /// Return a previously persisted result to skip executing shard `index`.
    /// A result whose experiments do not match the plan (stale artifact) is
    /// discarded and the shard re-executes.
    std::function<std::optional<ShardResult>(std::size_t index)> load;
    /// Called once per *executed* shard (not for resumed ones), when its
    /// window's last pass finished.
    std::function<void(const ShardResult&)> store;
    std::function<void(const ShardProgress&)> progress;
    /// Fan-out executor for the label blocks and the passes; empty = a
    /// private ThreadPool per run. Never affects results (shards still merge
    /// in shard-index order), only where the work runs.
    ShardExecutor execute;
  };

  /// Run the campaign in config.mode. Throws SoundnessError in Validate
  /// mode if any pruned injection executes to a non-benign outcome.
  [[nodiscard]] CampaignResult run(const ShardHooks& hooks = {});

private:
  CampaignTarget target_;
  CampaignConfig config_;
  const mate::MateSet* mates_ = nullptr;
  sim::TraceSource* golden_ = nullptr;
  CampaignPlan plan_;
};

} // namespace ripple::hafi
