#include "cores/msp430/core.hpp"

#include "rtl/components.hpp"
#include "rtl/optimize.hpp"
#include "rtl/ports.hpp"

namespace ripple::cores::msp430 {

using rtl::Bus;
using rtl::Module;

namespace {

/// Register number -> register-file index: R1 -> 0, R3..R15 -> 1..13.
/// (R0/R2 never reach the register file; control guards all accesses.)
Bus rf_index(Module& m, const Bus& r) {
  const Bus minus2 = m.add(r, m.constant_bus(4, 0b1110)).sum; // r - 2 mod 16
  return m.mux_bus(m.equals_const(r, 1), minus2, m.constant_bus(4, 0));
}

netlist::Netlist elaborate() {
  Module m("msp430_core");

  // --- ports -----------------------------------------------------------------
  const Bus mem_rdata = m.input_bus("mem_rdata", kWordBits);

  // --- state -----------------------------------------------------------------
  rtl::RegFile rf =
      rtl::make_regfile(m, std::string(kRegfilePrefix), 14, kWordBits);
  const Bus pc = m.state("pc", kWordBits, 0);
  const Bus ir = m.state("ir", kWordBits, 0);
  const Bus st = m.state("fsm", 3, kFetch);
  const Bus src_val = m.state("src_val", kWordBits, 0);
  const Bus dst_val = m.state("dst_val", kWordBits, 0);
  const Bus addr = m.state("addr", kWordBits, 0);
  const WireId flag_c = m.state1("sr_c", false);
  const WireId flag_z = m.state1("sr_z", false);
  const WireId flag_n = m.state1("sr_n", false);
  const WireId flag_v = m.state1("sr_v", false);

  // --- FSM state decode --------------------------------------------------------
  const WireId in_fetch = m.equals_const(st, kFetch);
  const WireId in_decode = m.equals_const(st, kDecode);
  const WireId in_src_ext = m.equals_const(st, kSrcExt);
  const WireId in_src_read = m.equals_const(st, kSrcRead);
  const WireId in_dst_ext = m.equals_const(st, kDstExt);
  const WireId in_dst_read = m.equals_const(st, kDstRead);
  const WireId in_exec = m.equals_const(st, kExec);
  const WireId in_dst_write = m.equals_const(st, kDstWrite);

  // --- instruction decode --------------------------------------------------------
  const Bus op4 = Module::slice(ir, 12, 4);
  const auto eq4 = [&](unsigned v) { return m.equals_const(op4, v); };
  const WireId is_fmt2 = m.equals_const(Module::slice(ir, 10, 6), 0b000100);
  const WireId is_jump = m.equals_const(Module::slice(ir, 13, 3), 0b001);

  const WireId is_mov = eq4(0x4);
  const WireId is_add = eq4(0x5);
  const WireId is_addc = eq4(0x6);
  const WireId is_subc = eq4(0x7);
  const WireId is_sub = eq4(0x8);
  const WireId is_cmp = eq4(0x9);
  const WireId is_bit = eq4(0xb);
  const WireId is_bic = eq4(0xc);
  const WireId is_bis = eq4(0xd);
  const WireId is_xor = eq4(0xe);
  const WireId is_and = eq4(0xf);
  (void)is_mov;

  const Bus s_field = Module::slice(ir, 8, 4);
  const Bus as_field = Module::slice(ir, 4, 2);
  const WireId ad = Module::slice(ir, 7, 1)[0];
  const Bus d_field = Module::slice(ir, 0, 4);
  const Bus op2_field = Module::slice(ir, 7, 2);

  const WireId s_is_pc = m.equals_const(s_field, 0);
  const WireId s_is_sr = m.equals_const(s_field, 2);
  const WireId d_is_pc = m.equals_const(d_field, 0);
  const WireId d_is_sr = m.equals_const(d_field, 2);
  (void)d_is_sr;

  const WireId as_reg = m.equals_const(as_field, 0b00);
  (void)as_reg;
  const WireId as_idx = m.equals_const(as_field, 0b01);
  const WireId as_ind = m.equals_const(as_field, 0b10);
  const WireId as_inc = m.equals_const(as_field, 0b11);
  const WireId src_is_imm = m.and2(as_inc, s_is_pc);

  // --- register-file read ports ---------------------------------------------------
  const Bus rs_idx = rf_index(m, s_field);
  const Bus rd_idx = rf_index(m, d_field);
  const Bus rs_val = rtl::regfile_read(m, rf, rs_idx);
  const Bus rd_val = rtl::regfile_read(m, rf, rd_idx);

  // --- ALU --------------------------------------------------------------------------
  const Bus dst_op = m.mux_bus(ad, rd_val, dst_val);

  const WireId sub_like = m.or_all({is_subc, is_sub, is_cmp});
  const WireId use_carry = m.or2(is_addc, is_subc);
  const WireId use_adder =
      m.or_all({is_add, is_addc, is_sub, is_subc, is_cmp});
  const WireId cin = m.mux(sub_like, m.and2(use_carry, flag_c),
                           m.mux(use_carry, m.one(), flag_c));
  const Bus b_adj = m.xor_bus(src_val, Module::splat(sub_like, kWordBits));
  const rtl::AddResult adder = m.add(dst_op, b_adj, cin);

  // Format II operates on src_val (the register value latched in DECODE).
  const Bus rrc_res = m.shift_right_const(src_val, 1, flag_c);
  const Bus swpb_res = Module::concat(Module::slice(src_val, 8, 8),
                                      Module::slice(src_val, 0, 8));
  const Bus rra_res =
      m.shift_right_const(src_val, 1, src_val[kWordBits - 1]);
  const Bus sxt_res = Module::concat(
      Module::slice(src_val, 0, 8), Module::splat(src_val[7], 8));

  const WireId f2_rrc = m.and2(is_fmt2, m.equals_const(op2_field, 0b00));
  const WireId f2_swpb = m.and2(is_fmt2, m.equals_const(op2_field, 0b01));
  const WireId f2_rra = m.and2(is_fmt2, m.equals_const(op2_field, 0b10));
  const WireId f2_sxt = m.and2(is_fmt2, m.equals_const(op2_field, 0b11));

  // Result selection: the (deep) adder leg gets the top mux level so its
  // output reaches the execute-stage isolation gate in one hop; the shallow
  // legs go through a balanced tree over a binary-encoded op index
  // (0 mov, 1 and/bit, 2 bic, 3 bis, 4 xor, 5 rrc, 6 swpb, 7 rra, 8 sxt).
  const WireId and_grp = m.or2(is_and, is_bit);
  const Bus res_sel = {
      m.or_all({and_grp, is_bis, f2_rrc, f2_rra}),
      m.or_all({is_bic, is_bis, f2_swpb, f2_rra}),
      m.or_all({is_xor, f2_rrc, f2_swpb, f2_rra}),
      f2_sxt,
  };
  const std::vector<Bus> res_legs = {
      src_val, // MOV
      m.and_bus(dst_op, src_val),
      m.and_bus(dst_op, m.not_bus(src_val)),
      m.or_bus(dst_op, src_val),
      m.xor_bus(dst_op, src_val),
      rrc_res,
      swpb_res,
      rra_res,
      sxt_res,
  };
  const Bus result =
      m.mux_bus(use_adder, m.mux_tree(res_sel, res_legs), adder.sum);
  // Operand isolation: every consumer of the ALU result (PC, register file,
  // src_val staging, store data) is active only in EXEC, so the result bus is
  // gated once here instead of relying on each consumer's own enable.
  const Bus result_g = m.and_bus(result, Module::splat(in_exec, kWordBits));

  // --- flags ------------------------------------------------------------------------
  const WireId res_zero = m.is_zero(result);
  const WireId n_val = result[kWordBits - 1];
  // MSP430 carry: adder carry for add/sub (no-borrow semantics), !Z for the
  // logic ops (AND/BIT/XOR/SXT), shifted-out bit for RRA/RRC.
  const WireId fmt1_c = m.mux(use_adder, m.not_(res_zero), adder.carry);
  const WireId op2_is_sxt = m.equals_const(op2_field, 0b11);
  const WireId fmt2_c = m.mux(op2_is_sxt, src_val[0], m.not_(res_zero));
  const WireId c_val = m.mux(is_fmt2, fmt1_c, fmt2_c);
  // V: signed overflow for add/sub; "both operands negative" for XOR;
  // cleared by the other flag-setting ops.
  const WireId xor_v =
      m.and2(src_val[kWordBits - 1], dst_op[kWordBits - 1]);
  const WireId fmt1_v =
      m.mux(use_adder, m.mux(is_xor, m.zero(), xor_v), adder.overflow);
  const WireId v_val = m.mux(is_fmt2, fmt1_v, m.zero());

  const WireId op2_is_swpb = m.equals_const(op2_field, 0b01);
  const WireId fmt1_sets =
      m.or_all({use_adder, is_and, is_bit, is_xor});
  const WireId sets_flags =
      m.mux(is_fmt2, fmt1_sets, m.not_(op2_is_swpb));
  const WireId flag_we = m.and2(in_exec, sets_flags);
  // Flag-input isolation, same rationale as result_g: the values only matter
  // while flag_we (which implies in_exec) is high. Gating with the pure FSM
  // wire keeps the isolation signal outside every datapath fault cone.
  m.next_en(flag_c, flag_we, m.and2(c_val, in_exec));
  m.next_en(flag_z, flag_we, m.and2(res_zero, in_exec));
  m.next_en(flag_n, flag_we, m.and2(n_val, in_exec));
  m.next_en(flag_v, flag_we, m.and2(v_val, in_exec));

  // --- jump condition ------------------------------------------------------------------
  const Bus cond = Module::slice(ir, 10, 3);
  const WireId nxv = m.xor2(flag_n, flag_v);
  const std::vector<WireId> cond_options = {
      m.not_(flag_z), flag_z,      m.not_(flag_c), flag_c,
      flag_n,         m.not_(nxv), nxv,            m.one()};
  const WireId cond_true = m.mux_tree1(cond, cond_options);
  const WireId take_jump = m.and_all({in_decode, is_jump, cond_true});

  // --- PC ---------------------------------------------------------------------------------
  const Bus pc_plus2 = m.add(pc, m.constant_bus(kWordBits, 2)).sum;
  const Bus joff = m.sign_extend(Module::slice(ir, 0, 10), kWordBits - 1);
  const Bus jump_target = m.add(pc, Module::concat({m.zero()}, joff)).sum;

  const WireId fmt1_writes = m.and2(m.not_(is_cmp), m.not_(is_bit));
  const WireId writes_reg_exec =
      m.and2(in_exec, m.mux(is_fmt2, m.and2(fmt1_writes, m.not_(ad)),
                            m.one()));
  const WireId exec_wr_pc =
      m.and_all({writes_reg_exec, d_is_pc, m.not_(is_fmt2)});

  Bus pc_next = pc_plus2;
  pc_next = m.mux_bus(in_decode, pc_next, jump_target);
  pc_next = m.mux_bus(in_exec, pc_next, result_g);
  const WireId pc_en = m.or_all(
      {in_fetch, take_jump, in_src_ext, in_dst_ext,
       m.and2(in_src_read, src_is_imm), exec_wr_pc});
  m.next_en(pc, pc_en, pc_next);

  // --- IR ----------------------------------------------------------------------------------
  m.next_en(ir, in_fetch, mem_rdata);

  // --- operand/address registers -------------------------------------------------------------
  // src_val: register value in DECODE, memory word in SRC_READ, and the ALU
  // result on the way to DST_WRITE.
  Bus src_next = m.mux_bus(is_fmt2, rs_val, rd_val);
  src_next = m.mux_bus(in_src_read, src_next, mem_rdata);
  src_next = m.mux_bus(in_exec, src_next, result_g);
  const WireId src_en = m.or_all(
      {in_decode, in_src_read,
       m.and_all({in_exec, fmt1_writes, ad, m.not_(is_fmt2)})});
  // Isolation: src_val only latches in these states (pure FSM signal).
  const WireId src_states = m.or_all({in_decode, in_src_read, in_exec});
  m.next_en(src_val, src_en,
            m.and_bus(src_next, Module::splat(src_states, kWordBits)));

  m.next_en(dst_val, in_dst_read, mem_rdata);

  // addr: @Rn/@Rn+ base in DECODE (PC for immediates), base+ext in the EXT
  // states (absolute uses base 0). One shared adder serves both EXT states.
  const Bus base_s = m.mux_bus(s_is_sr, rs_val, m.constant_bus(kWordBits, 0));
  const Bus base_d = m.mux_bus(d_is_sr, rd_val, m.constant_bus(kWordBits, 0));
  const Bus ext_base = m.mux_bus(in_dst_ext, base_s, base_d);
  const Bus ext_sum = m.add(ext_base, mem_rdata).sum;
  Bus addr_next = m.mux_bus(s_is_pc, rs_val, pc);
  addr_next = m.mux_bus(m.or2(in_src_ext, in_dst_ext), addr_next, ext_sum);
  const WireId addr_en = m.or_all(
      {m.and_all({in_decode, m.or2(as_ind, as_inc), m.not_(is_fmt2),
                  m.not_(is_jump)}),
       in_src_ext, in_dst_ext});
  const WireId addr_states = m.or_all({in_decode, in_src_ext, in_dst_ext});
  m.next_en(addr, addr_en,
            m.and_bus(addr_next, Module::splat(addr_states, kWordBits)));

  // --- register-file write (one port, two producers in disjoint states) ----------------
  // Isolation on the write path: the auto-increment value is only consumed
  // in SRC_READ and the write address only in the two writing states, so
  // both are gated with pure FSM signals.
  const Bus rs_gated =
      m.and_bus(rs_val, Module::splat(in_src_read, kWordBits));
  const Bus rs_plus2 = m.add(rs_gated, m.constant_bus(kWordBits, 2)).sum;
  const WireId inc_write =
      m.and_all({in_src_read, as_inc, m.not_(s_is_pc), m.not_(is_fmt2)});
  const WireId exec_write = m.and2(writes_reg_exec, m.not_(exec_wr_pc));
  const WireId wen = m.or2(inc_write, exec_write);
  const WireId wr_states = m.or2(in_src_read, in_exec);
  const Bus waddr =
      m.and_bus(m.mux_bus(inc_write, rd_idx, rs_idx),
                Module::splat(wr_states, 4));
  const Bus wdata = m.mux_bus(inc_write, result_g, rs_plus2);
  rtl::regfile_write(m, rf, waddr, wen, wdata);

  // --- FSM next state -------------------------------------------------------------------
  const auto state_const = [&](unsigned s) { return m.constant_bus(3, s); };
  Bus decode_next = m.mux_bus(ad, state_const(kExec), state_const(kDstExt));
  decode_next = m.mux_bus(as_idx, decode_next, state_const(kSrcExt));
  decode_next = m.mux_bus(m.or2(as_ind, as_inc), decode_next,
                          state_const(kSrcRead));
  decode_next = m.mux_bus(is_fmt2, decode_next, state_const(kExec));
  decode_next = m.mux_bus(is_jump, decode_next, state_const(kFetch));

  const Bus after_src =
      m.mux_bus(ad, state_const(kExec), state_const(kDstExt));
  const Bus after_exec = m.mux_bus(
      m.and_all({fmt1_writes, ad, m.not_(is_fmt2)}), state_const(kFetch),
      state_const(kDstWrite));

  const std::vector<Bus> state_options = {
      state_const(kDecode), // from FETCH
      decode_next,          // from DECODE
      state_const(kSrcRead),
      after_src,            // from SRC_READ
      state_const(kDstRead),
      state_const(kExec),   // from DST_READ
      after_exec,           // from EXEC
      state_const(kFetch),  // from DST_WRITE
  };
  m.next(st, m.mux_tree(st, state_options));

  // --- memory port -----------------------------------------------------------------------
  const WireId addr_is_pc = m.or_all({in_fetch, in_src_ext, in_dst_ext});
  const Bus mem_addr_raw = m.mux_bus(addr_is_pc, addr, pc);
  const WireId rd_strobe = m.or_all(
      {in_fetch, in_src_ext, in_dst_ext, in_src_read, in_dst_read});
  const WireId mem_strobe = m.or2(rd_strobe, in_dst_write);
  rtl::name_output_bus(
      m, m.and_bus(mem_addr_raw, Module::splat(mem_strobe, kWordBits)),
      "mem_addr");
  rtl::name_output_bus(
      m, m.and_bus(src_val, Module::splat(in_dst_write, kWordBits)),
      "mem_wdata");
  rtl::name_output(m, in_dst_write, "mem_we");

  return m.take();
}

} // namespace

Msp430Ports resolve_msp430_ports(const netlist::Netlist& n) {
  Msp430Ports p;
  p.mem_rdata = rtl::find_bus(n, "mem_rdata", kWordBits);
  p.mem_addr = rtl::find_bus(n, "mem_addr", kWordBits);
  p.mem_wdata = rtl::find_bus(n, "mem_wdata", kWordBits);
  p.mem_we = rtl::find_wire_checked(n, "mem_we");
  return p;
}

Msp430Core build_msp430_core(bool optimized) {
  netlist::Netlist n = elaborate();
  if (optimized) {
    n = rtl::optimize(n).netlist;
  }
  Msp430Ports ports = resolve_msp430_ports(n);
  return Msp430Core{std::move(n), std::move(ports)};
}

} // namespace ripple::cores::msp430
