// 64-lane batch device-under-test: the campaign's one injection engine.
//
// A BatchDut is one boot of the target system whose simulator carries 64
// lanes — lane 0 is the golden (fault-free) run, lanes 1..63 each carry one
// injection experiment — so a single gate-level pass retires a whole batch of
// the campaign's injection points, the way the paper's FPGA fabric checks
// every run against the golden run online. All lanes share one start: the
// reset state and program image, or — given GoldenSnapshots — the golden
// state of the pass's first injection cycle, so that the golden prefix every
// lane would only mirror is never simulated. Environment state that can
// diverge per lane (data memory, the I/O event log) is vectorized per lane
// inside the implementation.
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
#include "sim/transposed.hpp"
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

/// Where a pass's lane-cycles went. Each carried lane spends every cycle
/// the pass simulates in exactly one phase, so the three sum to
/// lanes x cycles; a pass started at c0 counts from c0.
struct LaneCycles {
  std::uint64_t pre_injection = 0; // mirroring the golden run before the SEU
  std::uint64_t live = 0;          // from the SEU until classified
  std::uint64_t idle = 0;          // classified, while the pass runs on

  LaneCycles& operator+=(const LaneCycles& o) {
    pre_injection += o.pre_injection;
    live += o.live;
    idle += o.idle;
    return *this;
  }
  bool operator==(const LaneCycles&) const = default;
};

/// Per-pass utilization/retirement accounting, accumulated by the campaign
/// into the `--report=json` lane counters.
struct BatchRunStats {
  std::size_t lanes = 0;               // experiments carried in this pass
  std::size_t lanes_retired_early = 0; // classified before the run ended
  std::uint64_t lane_cycles_saved = 0; // cycles not simulated thanks to that
  std::uint64_t cycles = 0;            // clock cycles the pass simulated
  std::uint64_t gate_evals = 0;        // gate evaluations, a reset included
  LaneCycles lane_cycles;
};

/// The golden run's flop state and primary outputs, cycle by cycle: what a
/// batch pass needs to start at any cycle c0 of the golden run instead of at
/// reset. Every flop word is the golden Q bit of c0 in all 64 lanes; the
/// harness rebuilds its memories as the program image plus the golden
/// writes before c0, read back from its write strobe, address and data —
/// primary outputs, which every harness constructor checks with
/// BatchSimulator::require_primary_output. O((flops + outputs) x cycles)
/// bits, never the whole trace.
class GoldenSnapshots {
public:
  /// The wires a snapshot reads, each once: every flop's Q wire in FlopId
  /// order, then every primary output.
  [[nodiscard]] static std::vector<WireId> wires(const netlist::Netlist& n);

  /// `captured` holds wires(n) in that order, e.g. a sim::WireCapture of
  /// the golden run.
  GoldenSnapshots(const netlist::Netlist& n, sim::TransposedTrace captured);

  [[nodiscard]] std::size_t num_cycles() const {
    return captured_.num_cycles();
  }

  /// Every flop's golden state at the start of `cycle`, broadcast to all
  /// lanes, in FlopId order (BatchSimulator::load_state's layout).
  [[nodiscard]] std::vector<std::uint64_t> flop_words(
      std::uint64_t cycle) const;

  /// The golden value of a bus of primary outputs in `cycle`
  /// (little-endian, as BatchSimulator::read_bus).
  [[nodiscard]] std::uint64_t bus(const sim::Bus& bus,
                                  std::uint64_t cycle) const;

private:
  [[nodiscard]] bool bit(std::uint32_t column, std::uint64_t cycle) const {
    return (captured_.wire_stream(column)[cycle / 64] >> (cycle % 64)) & 1u;
  }

  sim::TransposedTrace captured_;
  std::vector<std::uint32_t> column_; // per netlist wire; kNone if not held
  std::vector<std::uint32_t> q_column_; // per flop
};

/// Shared per-lane bookkeeping for BatchDut implementations: injection
/// scheduling, active/armed lane masks, per-lane memory-diff counters,
/// retirement and the final outcome classification. The concrete DUT owns
/// the environment (memories, I/O ports) and reports memory-diff deltas and
/// observable divergence here; everything below is core-independent.
class BatchLaneState {
public:
  /// Start a pass on `sim`: points[i] rides in lane i+1. Without `golden`
  /// the pass starts at reset; with it, at its first injection cycle c0 with
  /// every lane in the golden state of c0 (the harness rebuilds its
  /// memories for c0, reading sim.cycle()). Before its injection a lane is
  /// bit-identical to the golden lane, so both starts give the same
  /// outcomes and retirements.
  void begin(sim::BatchSimulator& sim, std::span<const InjectionPoint> points,
             std::size_t run_cycles, const GoldenSnapshots* golden) {
    RIPPLE_CHECK(points.size() <= kExperimentLanes,
                 "batch pass carries at most ", kExperimentLanes,
                 " experiments, got ", points.size());
    points_ = points;
    run_cycles_ = run_cycles;
    outcomes_.assign(points.size(), Outcome::Benign);
    retired_at_.assign(points.size(), kRunning);
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
    evals_at_begin_ = sim.gate_evals();
    if (golden == nullptr || points.empty()) {
      sim.reset();
    } else {
      const std::uint64_t first = points[order_.front()].cycle;
      sim.load_state(golden->flop_words(first), first);
    }
    first_cycle_ = sim.cycle();
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
  [[nodiscard]] std::vector<Outcome> finish(const sim::BatchSimulator& sim,
                                            BatchRunStats* stats) {
    sim::LaneMask remaining = active_;
    while (remaining != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(remaining));
      remaining &= remaining - 1;
      outcomes_[lane - 1] =
          mem_diff_[lane] != 0 ? Outcome::Latent : Outcome::Benign;
    }
    active_ = 0;
    const std::uint64_t end = sim.cycle();
    stats_.cycles = end - first_cycle_;
    stats_.gate_evals = sim.gate_evals() - evals_at_begin_;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const std::uint64_t injected = std::min(points_[i].cycle, end);
      const std::uint64_t retired = std::min(retired_at_[i], end);
      stats_.lane_cycles.pre_injection += injected - first_cycle_;
      stats_.lane_cycles.live += retired - injected;
      stats_.lane_cycles.idle += end - retired;
    }
    if (stats != nullptr) *stats = stats_;
    return std::move(outcomes_);
  }

private:
  static constexpr std::uint64_t kRunning = ~std::uint64_t{0};

  void retire(unsigned lane, Outcome outcome, std::uint64_t cycles_done) {
    outcomes_[lane - 1] = outcome;
    retired_at_[lane - 1] = cycles_done;
    active_ &= ~lane_bit(lane);
    ++stats_.lanes_retired_early;
    stats_.lane_cycles_saved += run_cycles_ - cycles_done;
  }

  std::span<const InjectionPoint> points_;
  std::size_t run_cycles_ = 0;
  std::vector<Outcome> outcomes_;
  std::vector<std::uint64_t> retired_at_; // per point; kRunning until then
  std::vector<std::uint64_t> mem_diff_; // per lane, vs the golden lane
  sim::LaneMask active_ = 0;
  sim::LaneMask armed_ = 0;
  std::vector<std::size_t> order_; // point indices sorted by injection cycle
  std::size_t cursor_ = 0;
  std::uint64_t evals_at_begin_ = 0; // the simulator's count before reset
  std::uint64_t first_cycle_ = 0;    // the pass's start: 0 or c0
  BatchRunStats stats_;
};

class BatchDut {
public:
  virtual ~BatchDut() = default;

  /// Execute one batch pass: start every lane from reset — or, given
  /// `golden`, from the golden state of the points' first injection cycle
  /// c0 — flip points[i]'s flop in lane i+1 at the start of
  /// points[i].cycle, run up to cycle `run_cycles` (stopping early once
  /// every lane is retired) and classify each lane against the golden lane.
  /// Returns outcomes in points order; points.size() must be <=
  /// kExperimentLanes. Both starts give the same outcomes, retirements and
  /// live and idle lane-cycles; from a snapshot `cycles` is lower by c0 and
  /// pre-injection lane-cycles by lanes x c0. The pass is self-contained:
  /// run() may be called repeatedly on one BatchDut.
  [[nodiscard]] virtual std::vector<Outcome> run(
      std::span<const InjectionPoint> points, std::size_t run_cycles,
      BatchRunStats* stats = nullptr,
      const GoldenSnapshots* golden = nullptr) = 0;
};

using BatchDutFactory = std::function<std::unique_ptr<BatchDut>()>;

} // namespace ripple::hafi
