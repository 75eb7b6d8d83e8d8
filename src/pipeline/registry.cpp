#include "pipeline/registry.hpp"

#include "cores/avr/core.hpp"
#include "cores/avr/programs.hpp"
#include "cores/avr/system.hpp"
#include "cores/msp430/core.hpp"
#include "cores/msp430/programs.hpp"
#include "cores/msp430/system.hpp"
#include "hafi/avr_dut.hpp"
#include "hafi/msp430_dut.hpp"
#include "pipeline/artifact.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace ripple::pipeline {
namespace {

/// WorkloadRunner over one booted System; holds the core so a stream
/// outlives the runtime that booted it.
template <typename Core, typename System>
class SystemRunner final : public WorkloadRunner {
public:
  template <typename Program>
  SystemRunner(std::shared_ptr<const Core> core, const Program& program)
      : core_(std::move(core)), system_(*core_, program) {}

  void run(std::size_t cycles) override { system_.run(cycles); }
  void run_stream(std::size_t cycles, sim::RowSink& sink) override {
    system_.run_stream(cycles, sink);
  }

private:
  std::shared_ptr<const Core> core_;
  System system_;
};

/// A runtime over `core` running `program` (either core's System type).
template <typename System, typename Core, typename Program>
CoreRuntime make_runtime(Core core, Program program, std::string workload,
                         std::string_view regfile_prefix,
                         hafi::BatchDutFactory (*batch_factory)(
                             const Core&, const Program&)) {
  auto c = std::make_shared<const Core>(std::move(core));
  auto p = std::make_shared<const Program>(std::move(program));
  CoreRuntime rt;
  rt.netlist = std::shared_ptr<const netlist::Netlist>(c, &c->netlist);
  rt.fingerprint = fingerprint(c->netlist);
  rt.workload = std::move(workload);
  rt.regfile_prefix = regfile_prefix;
  // The inner factory captures `*c`/`*p` by reference; the wrapper holds the
  // shared_ptrs so those references stay valid.
  rt.batch_factory = [c, p, inner = batch_factory(*c, *p)] { return inner(); };
  rt.boot = [c, p]() -> std::unique_ptr<WorkloadRunner> {
    return std::make_unique<SystemRunner<Core, System>>(c, *p);
  };
  return rt;
}

std::string workload_or_fib(std::string_view workload) {
  return workload.empty() ? "fib" : std::string(workload);
}

} // namespace

CoreRuntime avr_runtime(cores::avr::Program program, std::string workload) {
  return make_runtime<cores::avr::AvrSystem>(
      cores::avr::build_avr_core(true), std::move(program),
      std::move(workload), cores::avr::kRegfilePrefix,
      &hafi::make_avr_batch_factory);
}

CoreRegistry& CoreRegistry::global() {
  static CoreRegistry* registry = [] {
    auto* r = new CoreRegistry;
    r->register_core("avr", [](std::string_view workload) {
      const std::string wl = workload_or_fib(workload);
      return avr_runtime(cores::avr::workload_program(wl), wl);
    });
    r->register_core("msp430", [](std::string_view workload) {
      const std::string wl = workload_or_fib(workload);
      return make_runtime<cores::msp430::Msp430System>(
          cores::msp430::build_msp430_core(true),
          cores::msp430::workload_image(wl), wl,
          cores::msp430::kRegfilePrefix, &hafi::make_msp430_batch_factory);
    });
    return r;
  }();
  return *registry;
}

void CoreRegistry::register_core(std::string name, Maker maker) {
  RIPPLE_CHECK(!name.empty(), "core registry: empty name");
  RIPPLE_CHECK(maker != nullptr, "core registry: empty maker for '", name,
               "'");
  std::lock_guard lock(mutex_);
  makers_[std::move(name)] = std::move(maker);
}

bool CoreRegistry::contains(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return makers_.count(name) != 0;
}

CoreRuntime CoreRegistry::make(const std::string& name,
                               std::string_view workload) const {
  Maker maker;
  {
    std::lock_guard lock(mutex_);
    const auto it = makers_.find(name);
    if (it == makers_.end()) {
      std::string known;
      for (const auto& [n, m] : makers_) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw Error(strprintf("unknown core '%s' (registered: %s)",
                            name.c_str(), known.c_str()));
    }
    maker = it->second;
  }
  CoreRuntime rt = maker(workload);
  RIPPLE_CHECK(rt.netlist != nullptr && rt.batch_factory != nullptr &&
                   rt.boot != nullptr,
               "core registry: maker for '", name,
               "' produced an incomplete runtime (needs a netlist, a batch "
               "DUT factory and a workload boot)");
  return rt;
}

std::vector<std::string> CoreRegistry::names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(makers_.size());
  for (const auto& [n, m] : makers_) names.push_back(n);
  return names;
}

} // namespace ripple::pipeline
