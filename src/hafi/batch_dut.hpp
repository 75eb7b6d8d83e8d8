// 64-lane batch device-under-test: the campaign's one injection engine.
//
// A BatchDut is one boot of the target system whose simulator carries 64
// lanes — lane 0 is the golden (fault-free) run, lanes 1..63 each carry one
// injection experiment — so a single gate-level pass retires a whole batch of
// the campaign's injection points, the way the paper's FPGA fabric checks
// every run against the golden run online. All lanes share the boot sequence
// (every lane starts from the same reset state and program image);
// environment state that can diverge per lane (data memory, the I/O event
// log) is vectorized per lane inside the implementation.
//
// Divergence handling, per cycle:
//   * an I/O event that deviates from the golden lane's event stream pins
//     the lane's outcome to Sdc immediately (the serialized observable can
//     never match again) and retires the lane;
//   * a lane whose flop state XOR-matches the golden lane again *and* whose
//     memory diff count is zero has provably converged — everything it does
//     from here on is identical to the golden run — and retires as Benign;
//   * at the end of the run, surviving lanes classify as Latent when their
//     memory still differs from the golden lane's, Benign otherwise.
// The classification is exactly the equality of the serialized I/O log
// (observable) and of the final memory (architectural state) folded into
// incremental per-lane bookkeeping, so a BatchDut produces byte-identical
// campaign outcomes to the one-boot-per-experiment scalar oracle in
// tests/support.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/batch.hpp"
#include "util/assert.hpp"

namespace ripple::hafi {

/// One point of the fault space: flip `flop`'s state at the start of `cycle`
/// (the SEU corrupts the value the flop carries *into* that cycle).
struct InjectionPoint {
  FlopId flop;
  std::uint64_t cycle;

  bool operator==(const InjectionPoint&) const = default;
};

/// Classification of one executed injection against the golden run.
enum class Outcome {
  Benign,     // observable and architectural state match the golden run
  Latent,     // observable matches, architectural state differs at the end
  Sdc,        // observable diverged: silent data corruption / wrong output
};

/// Lane 0 always carries the fault-free reference run.
inline constexpr unsigned kGoldenLane = 0;

/// Injection experiments per batch pass (every lane except the golden one).
inline constexpr std::size_t kExperimentLanes = sim::kBatchLanes - 1;

/// Per-pass utilization/retirement accounting, accumulated by the campaign
/// into the `--report=json` lane counters.
struct BatchRunStats {
  std::size_t lanes = 0;               // experiments carried in this pass
  std::size_t lanes_retired_early = 0; // classified before the run ended
  std::uint64_t lane_cycles_saved = 0; // cycles not simulated thanks to that
};

/// Shared per-lane bookkeeping for BatchDut implementations: injection
/// scheduling, active/armed lane masks, per-lane memory-diff counters,
/// retirement and the final outcome classification. The concrete DUT owns
/// the environment (memories, I/O ports) and reports memory-diff deltas and
/// observable divergence here; everything below is core-independent.
class BatchLaneState {
public:
  /// Start a pass: points[i] rides in lane i+1.
  void begin(std::span<const InjectionPoint> points, std::size_t run_cycles) {
    RIPPLE_CHECK(points.size() <= kExperimentLanes,
                 "batch pass carries at most ", kExperimentLanes,
                 " experiments, got ", points.size());
    points_ = points;
    run_cycles_ = run_cycles;
    outcomes_.assign(points.size(), Outcome::Benign);
    mem_diff_.assign(sim::kBatchLanes, 0);
    active_ = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      active_ |= lane_bit(lane_of(i));
    }
    armed_ = 0;
    stats_ = BatchRunStats{};
    stats_.lanes = points.size();
    order_.resize(points.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return points[a].cycle < points[b].cycle;
                     });
    cursor_ = 0;
  }

  [[nodiscard]] static unsigned lane_of(std::size_t point_index) {
    return static_cast<unsigned>(point_index) + 1;
  }
  [[nodiscard]] static sim::LaneMask lane_bit(unsigned lane) {
    return sim::LaneMask{1} << lane;
  }

  /// Experiment lanes still simulating (the golden lane is never in it).
  [[nodiscard]] sim::LaneMask active() const { return active_; }
  /// Active lanes whose injection already happened. Only they can diverge;
  /// a lane before its injection cycle is bit-identical to the golden lane.
  [[nodiscard]] sim::LaneMask armed_active() const { return armed_ & active_; }
  [[nodiscard]] bool is_armed(unsigned lane) const {
    return (armed_ >> lane) & 1u;
  }
  [[nodiscard]] bool all_retired() const { return active_ == 0; }

  /// Apply the SEUs scheduled for the start of cycle `c`.
  void inject(sim::BatchSimulator& sim, std::uint64_t c) {
    while (cursor_ < order_.size() && points_[order_[cursor_]].cycle == c) {
      const std::size_t i = order_[cursor_++];
      sim.flip_flop(points_[i].flop, lane_bit(lane_of(i)));
      armed_ |= lane_bit(lane_of(i));
    }
  }

  /// Addresses where the lane's memory differs from the golden lane's.
  [[nodiscard]] std::uint64_t mem_diff(unsigned lane) const {
    return mem_diff_[lane];
  }
  void bump_mem_diff(unsigned lane, bool was_equal, bool is_equal) {
    if (was_equal && !is_equal) {
      ++mem_diff_[lane];
    } else if (!was_equal && is_equal) {
      --mem_diff_[lane];
    }
  }

  /// The lane's observable diverged from the golden lane's event stream: the
  /// serialized I/O log can never match again, so the outcome is pinned to
  /// Sdc and the lane retires now.
  void retire_sdc(unsigned lane, std::uint64_t cycles_done) {
    retire(lane, Outcome::Sdc, cycles_done);
  }

  /// After latch: retire every armed lane whose flop state XOR-matches the
  /// golden lane again and whose memory diff is zero — it has converged, and
  /// everything it does for the rest of the run is identical to the golden
  /// run, so its outcome is provably Benign.
  void retire_converged(const sim::BatchSimulator& sim,
                        std::uint64_t cycles_done) {
    sim::LaneMask candidates =
        armed_active() & ~sim.state_divergence(kGoldenLane);
    while (candidates != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(candidates));
      candidates &= candidates - 1;
      if (mem_diff_[lane] == 0) retire(lane, Outcome::Benign, cycles_done);
    }
  }

  /// End of run: surviving lanes matched the golden observable the whole
  /// way, so their memory decides Latent vs Benign. Returns the outcomes in
  /// points order.
  [[nodiscard]] std::vector<Outcome> finish(BatchRunStats* stats) {
    sim::LaneMask remaining = active_;
    while (remaining != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(remaining));
      remaining &= remaining - 1;
      outcomes_[lane - 1] =
          mem_diff_[lane] != 0 ? Outcome::Latent : Outcome::Benign;
    }
    active_ = 0;
    if (stats != nullptr) *stats = stats_;
    return std::move(outcomes_);
  }

private:
  void retire(unsigned lane, Outcome outcome, std::uint64_t cycles_done) {
    outcomes_[lane - 1] = outcome;
    active_ &= ~lane_bit(lane);
    ++stats_.lanes_retired_early;
    stats_.lane_cycles_saved += run_cycles_ - cycles_done;
  }

  std::span<const InjectionPoint> points_;
  std::size_t run_cycles_ = 0;
  std::vector<Outcome> outcomes_;
  std::vector<std::uint64_t> mem_diff_; // per lane, vs the golden lane
  sim::LaneMask active_ = 0;
  sim::LaneMask armed_ = 0;
  std::vector<std::size_t> order_; // point indices sorted by injection cycle
  std::size_t cursor_ = 0;
  BatchRunStats stats_;
};

class BatchDut {
public:
  virtual ~BatchDut() = default;

  /// Execute one batch pass: boot every lane from reset, flip points[i]'s
  /// flop in lane i+1 at the start of points[i].cycle, run `run_cycles`
  /// cycles (stopping early once every lane is retired) and classify each
  /// lane against the golden lane. Returns outcomes in points order;
  /// points.size() must be <= kExperimentLanes. The pass is self-contained:
  /// run() may be called repeatedly on one BatchDut.
  [[nodiscard]] virtual std::vector<Outcome> run(
      std::span<const InjectionPoint> points, std::size_t run_cycles,
      BatchRunStats* stats = nullptr) = 0;
};

using BatchDutFactory = std::function<std::unique_ptr<BatchDut>()>;

} // namespace ripple::hafi
