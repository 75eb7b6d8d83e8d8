#include "hafi/defuse.hpp"

#include "cores/avr/isa.hpp"
#include "cores/msp430/core.hpp"
#include "rtl/ports.hpp"

namespace ripple::hafi {
namespace {

using cores::avr::Instruction;
using cores::avr::Mnemonic;

struct InsnAccess {
  std::array<bool, 32> reads{};
  std::array<bool, 32> writes{};
};

/// Architectural reads/uses and writes of one instruction.
InsnAccess classify(const Instruction& i) {
  InsnAccess a;
  switch (i.mnemonic) {
    case Mnemonic::Nop:
    case Mnemonic::Rjmp:
    case Mnemonic::Brbs:
    case Mnemonic::Brbc:
      break;
    case Mnemonic::Mov:
      a.reads[i.rr] = true;
      a.writes[i.rd] = true;
      break;
    case Mnemonic::Add:
    case Mnemonic::Adc:
    case Mnemonic::Sub:
    case Mnemonic::Sbc:
    case Mnemonic::And:
    case Mnemonic::Eor:
    case Mnemonic::Or:
      a.reads[i.rd] = true;
      a.reads[i.rr] = true;
      a.writes[i.rd] = true;
      break;
    case Mnemonic::Cp:
    case Mnemonic::Cpc:
      a.reads[i.rd] = true;
      a.reads[i.rr] = true;
      break;
    case Mnemonic::Cpi:
      a.reads[i.rd] = true;
      break;
    case Mnemonic::Sbci:
    case Mnemonic::Subi:
    case Mnemonic::Ori:
    case Mnemonic::Andi:
      a.reads[i.rd] = true;
      a.writes[i.rd] = true;
      break;
    case Mnemonic::Ldi:
      a.writes[i.rd] = true;
      break;
    case Mnemonic::Com:
    case Mnemonic::Inc:
    case Mnemonic::Dec:
    case Mnemonic::Lsr:
    case Mnemonic::Ror:
      a.reads[i.rd] = true;
      a.writes[i.rd] = true;
      break;
    case Mnemonic::LdX:
      a.reads[26] = true; // X pointer (EX-cycle read, see below)
      a.writes[i.rd] = true;
      break;
    case Mnemonic::StX:
      a.reads[26] = true;
      a.reads[i.rr] = true;
      break;
    case Mnemonic::Out:
      a.reads[i.rr] = true;
      break;
  }
  return a;
}

} // namespace

AvrRegAccesses analyze_avr_accesses(const netlist::Netlist& core_netlist,
                                    const sim::TransposedTrace& trace) {
  const rtl::Bus ir = rtl::find_bus(core_netlist, "ir", 16,
                                    /*suffix=*/"__q");
  const WireId valid =
      rtl::find_wire_checked(core_netlist, "ex_valid__q");

  AvrRegAccesses out;
  out.reads_capture.assign(trace.num_cycles(), {});
  out.reads_direct.assign(trace.num_cycles(), {});
  out.writes.assign(trace.num_cycles(), {});

  for (std::size_t cycle = 0; cycle < trace.num_cycles(); ++cycle) {
    if (!trace.value(cycle, valid)) continue; // pipeline bubble
    std::uint16_t word = 0;
    for (std::size_t b = 0; b < 16; ++b) {
      word |= static_cast<std::uint16_t>(trace.value(cycle, ir[b])) << b;
    }
    const auto insn = cores::avr::decode(word);
    if (!insn) continue; // executes as NOP
    const InsnAccess acc = classify(*insn);
    const bool is_mem = insn->mnemonic == Mnemonic::LdX ||
                        insn->mnemonic == Mnemonic::StX;
    for (int r = 0; r < 32; ++r) {
      if (acc.writes[static_cast<std::size_t>(r)]) {
        out.writes[cycle][static_cast<std::size_t>(r)] = true;
      }
      if (!acc.reads[static_cast<std::size_t>(r)]) continue;
      // Operand reads happen in the IF stage, one cycle before EX; the
      // X pointer of LD/ST is additionally read combinationally during EX.
      if (cycle > 0) {
        out.reads_capture[cycle - 1][static_cast<std::size_t>(r)] = true;
      }
      if (r == 26 && is_mem) {
        out.reads_direct[cycle][26] = true;
      }
    }
  }
  return out;
}

AvrRegAccesses analyze_msp430_accesses(const netlist::Netlist& core_netlist,
                                       const sim::TransposedTrace& trace) {
  namespace msp = cores::msp430;
  const rtl::Bus ir = rtl::find_bus(core_netlist, "ir", 16, "__q");
  const rtl::Bus fsm = rtl::find_bus(core_netlist, "fsm", 3, "__q");

  AvrRegAccesses out;
  out.reads_capture.assign(trace.num_cycles(), {});
  out.reads_direct.assign(trace.num_cycles(), {});
  out.writes.assign(trace.num_cycles(), {});

  const auto read_bus = [&](std::size_t cycle, const rtl::Bus& bus) {
    std::uint32_t v = 0;
    for (std::size_t b = 0; b < bus.size(); ++b) {
      v |= static_cast<std::uint32_t>(trace.value(cycle, bus[b])) << b;
    }
    return v;
  };

  for (std::size_t cycle = 0; cycle < trace.num_cycles(); ++cycle) {
    const unsigned state = read_bus(cycle, fsm);
    if (state == msp::kFetch) continue; // ir not yet valid for this insn
    const std::uint16_t word =
        static_cast<std::uint16_t>(read_bus(cycle, ir));

    // Field decode (shared by all states of the instruction).
    const bool is_fmt2 = (word & 0xfc00) == 0x1000;
    const bool is_jump = (word & 0xe000) == 0x2000;
    const bool is_fmt1 = (word >> 12) >= 4;
    const unsigned s_reg = (word >> 8) & 0xf;
    const unsigned as = (word >> 4) & 0x3;
    const bool ad = (word >> 7) & 0x1;
    const unsigned d_reg = word & 0xf;
    const unsigned op1 = word >> 12;
    const bool s_gp = s_reg != 0 && s_reg != 2;
    const bool d_gp = d_reg != 0 && d_reg != 2;

    const auto read = [&](unsigned r) { out.reads_direct[cycle][r] = true; };
    const auto write = [&](unsigned r) { out.writes[cycle][r] = true; };

    if (is_jump) continue;

    switch (state) {
      case msp::kDecode:
        if (is_fmt2) {
          if (d_gp) read(d_reg); // operand latch (fmt2 reg in dst field)
        } else if (is_fmt1) {
          if (as == 0 && s_gp) read(s_reg);          // src_val <= R[s]
          if ((as == 2 || as == 3) && s_gp) read(s_reg); // addr <= R[s]
        }
        break;
      case msp::kSrcExt:
        if (s_gp) read(s_reg); // addr <= R[s] + ext
        break;
      case msp::kSrcRead:
        if (as == 3 && s_gp) {
          read(s_reg); // R[s] + 2 ...
          write(s_reg); // ... written back (read dominates: not benign)
        }
        break;
      case msp::kDstExt:
        if (d_gp) read(d_reg); // addr <= R[d] + ext
        break;
      case msp::kExec:
        if (is_fmt2) {
          if (d_gp) write(d_reg); // operand was read in DECODE
        } else if (is_fmt1 && !ad) {
          const bool writes_reg = op1 != 0x9 /*CMP*/ && op1 != 0xb /*BIT*/;
          const bool reads_dst = op1 != 0x4 /*MOV*/;
          if (d_gp && reads_dst) read(d_reg);
          if (d_gp && writes_reg) write(d_reg);
        }
        break;
      default:
        break; // DST_READ / DST_WRITE touch memory only
    }
  }
  return out;
}

DefUseResult defuse_prune(const AvrRegAccesses& accesses) {
  const std::size_t cycles = accesses.writes.size();
  DefUseResult result;
  result.benign.assign(32, std::vector<bool>(cycles, false));
  result.fault_space = 32 * cycles;

  // Scan backwards. Within one cycle the fault (present since the cycle
  // start) is observed by a direct read, observed by a capture read unless
  // the same cycle's write forwards around the register file, and killed by
  // the write at the cycle's end.
  for (std::size_t r = 0; r < 32; ++r) {
    bool next_is_kill = false; // no further access => not proven benign
    for (std::size_t t = cycles; t-- > 0;) {
      if (accesses.reads_direct[t][r]) {
        next_is_kill = false;
      } else if (accesses.writes[t][r]) {
        next_is_kill = true; // capture reads in this cycle are forwarded
      } else if (accesses.reads_capture[t][r]) {
        next_is_kill = false;
      }
      result.benign[r][t] = next_is_kill;
      if (next_is_kill) ++result.benign_points;
    }
  }
  return result;
}

} // namespace ripple::hafi
