// Reusable RTL building blocks shared by the CPU cores.
#pragma once

#include <string>
#include <vector>

#include "rtl/module.hpp"

namespace ripple::rtl {

/// A register file of `count` registers, `width` bits each. The flops are
/// named "<name><i>[b]" so register-file flip-flops can be identified later —
/// the evaluation's "FF w/o RF" fault set is defined by this prefix.
struct RegFile {
  std::string name;
  std::vector<Bus> regs;
};

/// Create the storage (flops only; writes are wired up by regfile_write).
[[nodiscard]] RegFile make_regfile(Module& m, std::string name,
                                   std::size_t count, std::size_t width);

/// Combinational read port: a mux tree over all registers.
[[nodiscard]] Bus regfile_read(Module& m, const RegFile& rf, const Bus& addr);

/// Single write port; must be called exactly once per register file (it
/// connects every register's next-state function).
void regfile_write(Module& m, const RegFile& rf, const Bus& waddr, WireId wen,
                   const Bus& wdata);

} // namespace ripple::rtl
