#include "rtl/components.hpp"

namespace ripple::rtl {

RegFile make_regfile(Module& m, std::string name, std::size_t count,
                     std::size_t width) {
  RegFile rf;
  rf.name = name;
  rf.regs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rf.regs.push_back(m.state(name + std::to_string(i), width, 0));
  }
  return rf;
}

Bus regfile_read(Module& m, const RegFile& rf, const Bus& addr) {
  return m.mux_tree(addr, rf.regs);
}

void regfile_write(Module& m, const RegFile& rf, const Bus& waddr, WireId wen,
                   const Bus& wdata) {
  // Operand isolation: the write bus is gated with the write enable before
  // it fans out to every register's hold mux. Functionally neutral (the
  // ungated value only ever matters when wen is high), and standard practice
  // in power-aware synthesis; it also concentrates the fault-masking
  // capability of the whole write path into the single wen literal.
  const Bus wdata_g = m.and_bus(wdata, Module::splat(wen, wdata.size()));
  const Bus sel = m.decode(waddr, rf.regs.size());
  for (std::size_t i = 0; i < rf.regs.size(); ++i) {
    m.next_en(rf.regs[i], m.and2(wen, sel[i]), wdata_g);
  }
}

} // namespace ripple::rtl
