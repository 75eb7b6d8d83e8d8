#include "support/scalar_campaign.hpp"

#include <unordered_map>
#include <vector>

#include "cores/avr/programs.hpp"
#include "cores/msp430/programs.hpp"
#include "support/oracles.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace ripple::hafi {

std::string AvrDut::observable() const {
  std::string out;
  for (const cores::avr::IoEvent& e : system_.io_log()) {
    out += strprintf("%llu:%02x=%02x;", static_cast<unsigned long long>(
                                            e.cycle),
                     e.addr, e.data);
  }
  return out;
}

std::string AvrDut::architectural_state() const {
  const auto& dmem = system_.dmem();
  return std::string(reinterpret_cast<const char*>(dmem.data()), dmem.size());
}

std::string Msp430Dut::observable() const {
  std::string out;
  for (const cores::msp430::IoEvent& e : system_.io_log()) {
    out += strprintf("%llu:%04x=%04x;", static_cast<unsigned long long>(
                                            e.cycle),
                     e.addr, e.data);
  }
  return out;
}

std::string Msp430Dut::architectural_state() const {
  const auto& mem = system_.memory();
  return std::string(reinterpret_cast<const char*>(mem.data()),
                     mem.size() * sizeof(std::uint16_t));
}

DutFactory make_avr_factory(const cores::avr::AvrCore& core,
                            const cores::avr::Program& program) {
  return [&core, &program] { return std::make_unique<AvrDut>(core, program); };
}

DutFactory make_msp430_factory(const cores::msp430::Msp430Core& core,
                               const cores::msp430::Image& image) {
  return [&core, &image] { return std::make_unique<Msp430Dut>(core, image); };
}

DutFactory make_oracle_factory(std::string_view core,
                               std::string_view workload) {
  if (core == "avr") {
    auto c = std::make_shared<const cores::avr::AvrCore>(
        cores::avr::build_avr_core(true));
    auto p = std::make_shared<const cores::avr::Program>(
        cores::avr::workload_program(workload));
    return [c, p, inner = make_avr_factory(*c, *p)] { return inner(); };
  }
  RIPPLE_CHECK(core == "msp430", "no scalar oracle for core '",
               std::string(core), "'");
  auto c = std::make_shared<const cores::msp430::Msp430Core>(
      cores::msp430::build_msp430_core(true));
  auto i = std::make_shared<const cores::msp430::Image>(
      cores::msp430::workload_image(workload));
  return [c, i, inner = make_msp430_factory(*c, *i)] { return inner(); };
}

CampaignResult run_scalar_campaign(const DutFactory& factory,
                                   const CampaignConfig& config,
                                   std::span<const InjectionPoint> points,
                                   const mate::MateSet* mates) {
  const bool pruning = config.mode != CampaignMode::Baseline;
  RIPPLE_CHECK(!pruning || mates != nullptr, "oracle campaign mode '",
               mode_name(config.mode), "' needs a MATE set");

  const std::unique_ptr<Dut> golden = factory();
  sim::Trace trace(golden->netlist());
  for (std::size_t c = 0; c < config.run_cycles; ++c) {
    golden->step(pruning ? &trace : nullptr);
  }
  const std::string observable = golden->observable();
  const std::string state = golden->architectural_state();

  std::vector<std::vector<bool>> benign;
  std::unordered_map<FlopId, std::size_t> fault_row;
  if (pruning) {
    benign = mate::benign_matrix(*mates, trace);
    for (std::size_t i = 0; i < mates->faulty_wires.size(); ++i) {
      fault_row.emplace(
          golden->netlist().wire(mates->faulty_wires[i]).driver_flop, i);
    }
  }

  CampaignResult result;
  result.total = points.size();
  for (const InjectionPoint& point : points) {
    Experiment exp;
    exp.point = point;
    const auto row = fault_row.find(point.flop);
    exp.pruned = row != fault_row.end() && benign[row->second][point.cycle];
    if (!exp.pruned || config.mode == CampaignMode::Validate) {
      const std::unique_ptr<Dut> dut = factory();
      for (std::size_t c = 0; c < point.cycle; ++c) dut->step();
      dut->simulator().flip_flop(point.flop);
      for (std::size_t c = point.cycle; c < config.run_cycles; ++c) {
        dut->step();
      }
      exp.executed = true;
      exp.outcome = dut->observable() != observable ? Outcome::Sdc
                    : dut->architectural_state() != state ? Outcome::Latent
                                                          : Outcome::Benign;
    }

    result.pruned += exp.pruned ? 1 : 0;
    if (exp.executed) {
      ++result.executed;
      result.benign += exp.outcome == Outcome::Benign ? 1 : 0;
      result.latent += exp.outcome == Outcome::Latent ? 1 : 0;
      result.sdc += exp.outcome == Outcome::Sdc ? 1 : 0;
      result.pruned_confirmed +=
          exp.pruned && exp.outcome == Outcome::Benign ? 1 : 0;
    }
    result.experiments.push_back(exp);
  }
  return result;
}

} // namespace ripple::hafi
