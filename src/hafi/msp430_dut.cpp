#include "hafi/msp430_dut.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace ripple::hafi {
namespace {

class Msp430BatchDut final : public BatchDut {
public:
  Msp430BatchDut(const cores::msp430::Msp430Core& core,
                 const cores::msp430::Image& image);

  [[nodiscard]] std::vector<Outcome> run(std::span<const InjectionPoint> points,
                                         std::size_t run_cycles,
                                         BatchRunStats* stats) override;

private:
  static constexpr std::size_t kMemWords = 1u << 15;

  const cores::msp430::Msp430Core* core_;
  std::vector<std::uint16_t> image_;  // memory seed (image + zero fill)
  std::vector<std::uint16_t> memory_; // lane-major: [lane * kMemWords + word]
  sim::BatchSimulator sim_;
  BatchLaneState lanes_;
  std::array<std::uint64_t, sim::kBatchLanes> rdata_{};
  std::array<std::uint64_t, sim::kBatchLanes> addr_{};
};

Msp430BatchDut::Msp430BatchDut(const cores::msp430::Msp430Core& core,
                               const cores::msp430::Image& image)
    : core_(&core), image_(kMemWords, 0),
      memory_(sim::kBatchLanes * kMemWords, 0), sim_(core.netlist) {
  RIPPLE_CHECK(image.words.size() <= image_.size(),
               "program image larger than memory");
  std::copy(image.words.begin(), image.words.end(), image_.begin());
}

std::vector<Outcome> Msp430BatchDut::run(std::span<const InjectionPoint> points,
                                         std::size_t run_cycles,
                                         BatchRunStats* stats) {
  using cores::msp430::kIoBase;
  const cores::msp430::Msp430Ports& p = core_->ports;
  lanes_.begin(points, run_cycles);
  sim_.reset();
  // Only lanes 0..points.size() are ever simulated; seed just those.
  for (std::size_t lane = 0; lane <= points.size(); ++lane) {
    std::copy(image_.begin(), image_.end(),
              memory_.begin() +
                  static_cast<std::ptrdiff_t>(lane * kMemWords));
  }

  for (std::uint64_t c = 0; c < run_cycles; ++c) {
    if (lanes_.all_retired()) break;
    lanes_.inject(sim_, c);

    // Mirror of Msp430System::step: settle, serve the word, resettle.
    sim_.eval();
    const sim::LaneMask live =
        lanes_.active() | BatchLaneState::lane_bit(kGoldenLane);
    for (sim::LaneMask m = live; m != 0; m &= m - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(m));
      addr_[lane] = sim_.read_bus(p.mem_addr, lane) & 0xffff;
      rdata_[lane] =
          memory_[lane * kMemWords + ((addr_[lane] >> 1) & 0x7fff)];
    }
    sim_.drive_bus(p.mem_rdata, rdata_);
    sim_.eval();

    const std::uint64_t we = sim_.value(p.mem_we);

    // Golden lane's store this cycle; memory stays pre-write until every
    // experiment lane has been audited against it.
    const bool g_we = (we >> kGoldenLane) & 1u;
    const auto g_addr = static_cast<std::uint16_t>(addr_[kGoldenLane]);
    const auto g_wdata = static_cast<std::uint16_t>(
        g_we ? sim_.read_bus(p.mem_wdata, kGoldenLane) : 0);
    const bool g_io = g_we && g_addr >= kIoBase;
    const bool g_mem_we = g_we && g_addr < kIoBase;
    const std::size_t g_word = (g_addr >> 1) & 0x7fff;

    for (sim::LaneMask m = lanes_.active(); m != 0; m &= m - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(m));
      const bool l_we = (we >> lane) & 1u;
      const auto l_addr = static_cast<std::uint16_t>(addr_[lane]);
      const auto l_wdata = static_cast<std::uint16_t>(
          l_we ? sim_.read_bus(p.mem_wdata, lane) : 0);
      const bool l_io = l_we && l_addr >= kIoBase;
      const bool l_mem_we = l_we && l_addr < kIoBase;
      const std::size_t l_word = (l_addr >> 1) & 0x7fff;
      if (lanes_.is_armed(lane)) {
        // Observable compare (events embed the cycle, so any mismatch at
        // this cycle is permanent).
        if (l_io != g_io ||
            (l_io && (l_addr != g_addr || l_wdata != g_wdata))) {
          lanes_.retire_sdc(lane, c + 1);
          continue;
        }
        const auto audit = [&](std::size_t word) {
          const std::uint16_t gp = memory_[kGoldenLane * kMemWords + word];
          const std::uint16_t gq = (g_mem_we && word == g_word) ? g_wdata : gp;
          const std::uint16_t lp = memory_[lane * kMemWords + word];
          const std::uint16_t lq = (l_mem_we && word == l_word) ? l_wdata : lp;
          lanes_.bump_mem_diff(lane, lp == gp, lq == gq);
        };
        if (l_mem_we) audit(l_word);
        if (g_mem_we && (!l_mem_we || g_word != l_word)) audit(g_word);
      }
      if (l_mem_we) memory_[lane * kMemWords + l_word] = l_wdata;
    }
    if (g_mem_we) memory_[kGoldenLane * kMemWords + g_word] = g_wdata;

    sim_.latch();
    if (c + 1 < run_cycles) lanes_.retire_converged(sim_, c + 1);
  }
  return lanes_.finish(stats);
}

} // namespace

BatchDutFactory make_msp430_batch_factory(const cores::msp430::Msp430Core& core,
                                          const cores::msp430::Image& image) {
  return [&core, &image] {
    return std::make_unique<Msp430BatchDut>(core, image);
  };
}

} // namespace ripple::hafi
