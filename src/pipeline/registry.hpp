// Core registry: the one place a core target is put together.
//
// The serializable CampaignRequest (request.hpp) cannot carry function
// pointers, so everything executable — the netlist build, the 64-lane batch
// DUT, the workload boot behind every trace — lives here, keyed by core name. The
// built-in cores ("avr", "msp430") are registered on first use; binaries with
// custom targets register their own name (the avr_campaign example registers
// its checksum program as "avr-checksum"). CampaignPipeline's setup(),
// trace_stream() and run() and the campaign benches resolve every core here,
// and the rippled daemon serves exactly the names registered in its process.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cores/avr/assembler.hpp"
#include "hafi/campaign.hpp"
#include "netlist/netlist.hpp"
#include "sim/stream.hpp"

namespace ripple::pipeline {

/// A booted core system for the trace stream: fast-forward without tracing,
/// or run while pushing per-cycle rows.
class WorkloadRunner {
public:
  virtual ~WorkloadRunner() = default;
  virtual void run(std::size_t cycles) = 0;
  virtual void run_stream(std::size_t cycles, sim::RowSink& sink) = 0;
};

/// One resolved core build running one workload. Every closure shares
/// ownership of the core and program, so a CoreRuntime — and any stream or
/// DUT it boots — is self-contained.
struct CoreRuntime {
  std::shared_ptr<const netlist::Netlist> netlist;
  std::uint64_t fingerprint = 0; // content fingerprint of *netlist
  /// The 64-lane DUT running `workload`; required.
  hafi::BatchDutFactory batch_factory;
  std::string workload; // resolved workload name (trace cache key)
  /// Boots `workload` for the record_trace stage (ChunkedTraceStream), the
  /// one source of every trace: golden runs, selection and bench traces;
  /// required.
  std::function<std::unique_ptr<WorkloadRunner>()> boot;
  /// Flop-name prefix of the register file (the "FF w/o RF" fault set).
  std::string_view regfile_prefix;

  /// The campaign's view of this runtime (borrows *netlist).
  [[nodiscard]] hafi::CampaignTarget target() const {
    return {netlist.get(), batch_factory};
  }
};

/// The AVR core running `program`, under the workload name `workload`: the
/// built-in "avr" maker, for binaries that register AVR targets with
/// programs of their own. Builds the core; boots nothing.
[[nodiscard]] CoreRuntime avr_runtime(cores::avr::Program program,
                                      std::string workload);

class CoreRegistry {
public:
  /// Build a CoreRuntime for `workload` (a name from the core's workload
  /// registry; built-ins default an empty string to "fib"). Makers must not
  /// boot DUTs or workloads: callers time make() as set-up.
  using Maker = std::function<CoreRuntime(std::string_view workload)>;

  /// The process-wide registry with "avr" and "msp430" pre-registered.
  [[nodiscard]] static CoreRegistry& global();

  /// Register (or replace) a named core target.
  void register_core(std::string name, Maker maker);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Resolve `name`; throws ripple::Error on an unknown core, or when its
  /// maker returns no netlist, batch DUT factory or workload boot.
  [[nodiscard]] CoreRuntime make(const std::string& name,
                                 std::string_view workload = {}) const;

  /// Registered names, sorted (daemon hello / error messages).
  [[nodiscard]] std::vector<std::string> names() const;

private:
  mutable std::mutex mutex_;
  std::map<std::string, Maker> makers_;
};

} // namespace ripple::pipeline
