#include "netlist/random.hpp"

#include <string>
#include <vector>

#include "util/strings.hpp"

namespace ripple::netlist {

Netlist random_circuit(const RandomCircuitSpec& spec, Rng& rng) {
  RIPPLE_CHECK(spec.num_inputs + spec.num_flops > 0,
               "need at least one signal source");
  Netlist n("rand");

  std::vector<WireId> pool; // wires available as gate inputs, creation order

  for (std::size_t i = 0; i < spec.num_inputs; ++i) {
    pool.push_back(n.add_input(strprintf("in%zu", i)));
  }

  std::vector<FlopId> flops;
  for (std::size_t i = 0; i < spec.num_flops; ++i) {
    const FlopId f = n.add_flop(strprintf("r%zu", i), rng.next_bool());
    flops.push_back(f);
    pool.push_back(n.flop(f).q);
  }

  std::vector<cell::Kind> kinds = {
      cell::Kind::Inv,   cell::Kind::Buf,   cell::Kind::And2,
      cell::Kind::And3,  cell::Kind::Nand2, cell::Kind::Or2,
      cell::Kind::Or3,   cell::Kind::Nor2,  cell::Kind::Aoi21,
      cell::Kind::Oai21, cell::Kind::And4,  cell::Kind::Nor3,
  };
  if (spec.allow_xor) {
    kinds.push_back(cell::Kind::Xor2);
    kinds.push_back(cell::Kind::Xnor2);
  }
  if (spec.allow_mux) kinds.push_back(cell::Kind::Mux2);

  const auto pick_input = [&]() -> WireId {
    if (rng.next_double() < spec.locality && pool.size() > 4) {
      const std::size_t quarter = pool.size() / 4;
      return pool[pool.size() - 1 - rng.next_below(quarter + 1)];
    }
    return pool[rng.next_below(pool.size())];
  };

  for (std::size_t i = 0; i < spec.num_gates; ++i) {
    const cell::Kind kind = kinds[rng.next_below(kinds.size())];
    const std::size_t arity = cell::num_inputs(kind);
    std::vector<WireId> ins(arity);
    for (auto& w : ins) w = pick_input();
    pool.push_back(n.add_gate_new(kind, ins, strprintf("n%zu", i)));
  }

  // Connect every flop D to some wire (possibly another flop's Q — that is a
  // legal feedback path through state).
  for (FlopId f : flops) {
    n.connect_flop(f, pool[rng.next_below(pool.size())]);
  }

  // Primary outputs from the deepest region of the circuit. Never reuse a
  // primary input as an output (the Verilog writer would emit a port that is
  // both input and output).
  for (std::size_t i = 0; i < spec.num_outputs; ++i) {
    WireId w = pick_input();
    for (int tries = 0;
         n.wire(w).driver_kind == DriverKind::PrimaryInput && tries < 64;
         ++tries) {
      w = pick_input();
    }
    if (n.wire(w).driver_kind != DriverKind::PrimaryInput) n.mark_output(w);
  }

  n.check();
  return n;
}

} // namespace ripple::netlist
