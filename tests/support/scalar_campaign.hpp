// The one-boot-per-experiment scalar campaign: the oracle the 64-lane batch
// engine (hafi/campaign.hpp) is checked against.
//
// A Dut is one bootable instance of a target system — the core netlist plus
// its environment (memories, I/O) — stepped one cycle at a time. The oracle
// campaign boots one for the golden run and one per executed experiment,
// flips the flop at the start of the injection cycle, runs to the end and
// classifies by literal compares of the serialized I/O log (observable) and
// the final memory (architectural state) against the golden run. The batch
// engine folds exactly these compares into incremental per-lane bookkeeping,
// so the two must agree byte for byte.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "cores/avr/system.hpp"
#include "cores/msp430/system.hpp"
#include "hafi/campaign.hpp"
#include "mate/mate.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ripple::hafi {

class Dut {
public:
  virtual ~Dut() = default;

  [[nodiscard]] virtual const netlist::Netlist& netlist() const = 0;
  [[nodiscard]] virtual sim::Simulator& simulator() = 0;

  /// Advance one clock cycle (including environment service). When `trace`
  /// is non-null, the cycle's settled wire values are appended to it.
  virtual void step(sim::Trace* trace = nullptr) = 0;

  /// Externally visible behaviour so far (e.g. serialized I/O event log).
  /// Divergence from the golden run = the fault became an *error*.
  [[nodiscard]] virtual std::string observable() const = 0;

  /// ISA-visible state (memory, register contents) for latent-corruption
  /// classification at experiment end.
  [[nodiscard]] virtual std::string architectural_state() const = 0;
};

using DutFactory = std::function<std::unique_ptr<Dut>()>;

class AvrDut final : public Dut {
public:
  AvrDut(const cores::avr::AvrCore& core, const cores::avr::Program& program)
      : system_(core, program) {}

  [[nodiscard]] const netlist::Netlist& netlist() const override {
    return system_.core().netlist;
  }
  [[nodiscard]] sim::Simulator& simulator() override {
    return system_.simulator();
  }
  void step(sim::Trace* trace = nullptr) override { system_.step(trace); }
  [[nodiscard]] std::string observable() const override;
  [[nodiscard]] std::string architectural_state() const override;

private:
  cores::avr::AvrSystem system_;
};

class Msp430Dut final : public Dut {
public:
  Msp430Dut(const cores::msp430::Msp430Core& core,
            const cores::msp430::Image& image)
      : system_(core, image) {}

  [[nodiscard]] const netlist::Netlist& netlist() const override {
    return system_.core().netlist;
  }
  [[nodiscard]] sim::Simulator& simulator() override {
    return system_.simulator();
  }
  void step(sim::Trace* trace = nullptr) override { system_.step(trace); }
  [[nodiscard]] std::string observable() const override;
  [[nodiscard]] std::string architectural_state() const override;

private:
  cores::msp430::Msp430System system_;
};

/// Factories capturing core and program by reference (both must outlive
/// every DUT they boot).
[[nodiscard]] DutFactory make_avr_factory(const cores::avr::AvrCore& core,
                                          const cores::avr::Program& program);
[[nodiscard]] DutFactory make_msp430_factory(
    const cores::msp430::Msp430Core& core, const cores::msp430::Image& image);

/// DUTs of a built-in core ("avr" or "msp430") running one of its named
/// workloads, over a core build the factory owns — independent of the
/// CoreRegistry's target assembly.
[[nodiscard]] DutFactory make_oracle_factory(std::string_view core,
                                             std::string_view workload);

/// The scalar campaign over `points` (normally the batch campaign's
/// Campaign::plan().points) in config.mode: a golden run whose own trace
/// drives the pruning decisions, then one DUT boot per executed point, in
/// point order. Validate executes pruned points too but never throws: a
/// soundness violation shows as pruned_confirmed < pruned.
[[nodiscard]] CampaignResult run_scalar_campaign(
    const DutFactory& factory, const CampaignConfig& config,
    std::span<const InjectionPoint> points,
    const mate::MateSet* mates = nullptr);

} // namespace ripple::hafi
