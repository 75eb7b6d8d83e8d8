#include "hafi/avr_dut.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <vector>

namespace ripple::hafi {
namespace {

class AvrBatchDut final : public BatchDut {
public:
  AvrBatchDut(const cores::avr::AvrCore& core,
              const cores::avr::Program& program);

  [[nodiscard]] std::vector<Outcome> run(std::span<const InjectionPoint> points,
                                         std::size_t run_cycles,
                                         BatchRunStats* stats) override;

private:
  static constexpr std::size_t kDmemBytes = 256;

  const cores::avr::AvrCore* core_;
  std::vector<std::uint16_t> imem_; // shared across lanes (read-only)
  std::vector<std::uint8_t> dmem_;  // lane-major: [lane * kDmemBytes + addr]
  sim::BatchSimulator sim_;
  BatchLaneState lanes_;
  // Per-lane staging for drive_bus / commit (index = lane).
  std::array<std::uint64_t, sim::kBatchLanes> instr_{};
  std::array<std::uint64_t, sim::kBatchLanes> rdata_{};
  std::array<std::uint64_t, sim::kBatchLanes> daddr_{};
};

AvrBatchDut::AvrBatchDut(const cores::avr::AvrCore& core,
                         const cores::avr::Program& program)
    : core_(&core), imem_(program.words),
      dmem_(sim::kBatchLanes * kDmemBytes, 0), sim_(core.netlist) {}

std::vector<Outcome> AvrBatchDut::run(std::span<const InjectionPoint> points,
                                      std::size_t run_cycles,
                                      BatchRunStats* stats) {
  const cores::avr::AvrPorts& p = core_->ports;
  lanes_.begin(points, run_cycles);
  sim_.reset();
  std::fill(dmem_.begin(), dmem_.end(), 0);

  for (std::uint64_t c = 0; c < run_cycles; ++c) {
    // Once every experiment lane is classified the rest of the golden run
    // cannot change any outcome.
    if (lanes_.all_retired()) break;
    lanes_.inject(sim_, c);

    // Mirror of AvrSystem::step: settle, serve memories per lane, resettle.
    sim_.eval();
    const sim::LaneMask live =
        lanes_.active() | BatchLaneState::lane_bit(kGoldenLane);
    for (sim::LaneMask m = live; m != 0; m &= m - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(m));
      const std::uint64_t pc = sim_.read_bus(p.imem_addr, lane);
      instr_[lane] = pc < imem_.size() ? imem_[pc] : 0 /* NOP */;
      daddr_[lane] = sim_.read_bus(p.dmem_addr, lane);
      rdata_[lane] = dmem_[lane * kDmemBytes + daddr_[lane]];
    }
    sim_.drive_bus(p.instr, instr_);
    sim_.drive_bus(p.dmem_rdata, rdata_);
    sim_.eval();

    const std::uint64_t we = sim_.value(p.dmem_we);
    const std::uint64_t io_we = sim_.value(p.io_we);

    // The golden lane's effects this cycle; its memory stays pre-write until
    // every experiment lane has been audited against it.
    const bool g_we = (we >> kGoldenLane) & 1u;
    const auto g_addr = static_cast<std::size_t>(daddr_[kGoldenLane]);
    const auto g_data = static_cast<std::uint8_t>(
        g_we ? sim_.read_bus(p.dmem_wdata, kGoldenLane) : 0);
    const bool g_io = (io_we >> kGoldenLane) & 1u;
    const std::uint64_t g_io_addr =
        g_io ? sim_.read_bus(p.io_addr, kGoldenLane) : 0;
    const std::uint64_t g_io_data =
        g_io ? sim_.read_bus(p.io_data, kGoldenLane) : 0;

    for (sim::LaneMask m = lanes_.active(); m != 0; m &= m - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(m));
      const bool l_we = (we >> lane) & 1u;
      const auto l_addr = static_cast<std::size_t>(daddr_[lane]);
      const auto l_data = static_cast<std::uint8_t>(
          l_we ? sim_.read_bus(p.dmem_wdata, lane) : 0);
      if (lanes_.is_armed(lane)) {
        // Observable compare: the serialized I/O log embeds the cycle
        // number, so any event mismatch at this cycle is permanent.
        const bool l_io = (io_we >> lane) & 1u;
        if (l_io != g_io ||
            (l_io && (sim_.read_bus(p.io_addr, lane) != g_io_addr ||
                      sim_.read_bus(p.io_data, lane) != g_io_data))) {
          lanes_.retire_sdc(lane, c + 1);
          continue; // outcome pinned; the lane's memory no longer matters
        }
        // Incremental memory diff: only the two written addresses can change
        // lane-vs-golden equality this cycle.
        const auto audit = [&](std::size_t addr) {
          const std::uint8_t gp = dmem_[kGoldenLane * kDmemBytes + addr];
          const std::uint8_t gq = (g_we && addr == g_addr) ? g_data : gp;
          const std::uint8_t lp = dmem_[lane * kDmemBytes + addr];
          const std::uint8_t lq = (l_we && addr == l_addr) ? l_data : lp;
          lanes_.bump_mem_diff(lane, lp == gp, lq == gq);
        };
        if (l_we) audit(l_addr);
        if (g_we && (!l_we || g_addr != l_addr)) audit(g_addr);
      }
      if (l_we) dmem_[lane * kDmemBytes + l_addr] = l_data;
    }
    if (g_we) dmem_[kGoldenLane * kDmemBytes + g_addr] = g_data;

    sim_.latch();
    if (c + 1 < run_cycles) lanes_.retire_converged(sim_, c + 1);
  }
  return lanes_.finish(stats);
}

} // namespace

BatchDutFactory make_avr_batch_factory(const cores::avr::AvrCore& core,
                                       const cores::avr::Program& program) {
  return [&core, &program] {
    return std::make_unique<AvrBatchDut>(core, program);
  };
}

} // namespace ripple::hafi
