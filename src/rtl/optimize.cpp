#include "rtl/optimize.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "sim/levelize.hpp"

namespace ripple::rtl {
namespace {

using cell::Kind;
using netlist::DriverKind;
using netlist::Netlist;

/// A wire value in the rewritten space: a real wire, or a constant.
struct Value {
  enum class Tag { Wire, Const0, Const1 } tag = Tag::Wire;
  WireId wire;

  static Value of(WireId w) { return {Tag::Wire, w}; }
  static Value constant(bool v) {
    return {v ? Tag::Const1 : Tag::Const0, WireId{}};
  }
  [[nodiscard]] bool is_const() const { return tag != Tag::Wire; }
  [[nodiscard]] bool const_value() const { return tag == Tag::Const1; }

  bool operator==(const Value&) const = default;
  auto operator<=>(const Value&) const = default;
};

/// Rewritten definition of a surviving gate output.
struct Def {
  Kind kind;
  std::vector<WireId> inputs;
  bool operator<(const Def& o) const {
    if (kind != o.kind) return kind < o.kind;
    return inputs < o.inputs;
  }
};

/// Truth table over up to 4 variables.
struct Func {
  std::uint16_t truth = 0;
  std::uint8_t arity = 0;
};

bool func_bit(const Func& f, std::uint32_t assignment) {
  return (f.truth >> assignment) & 1u;
}

/// Is the function independent of variable v?
bool independent_of(const Func& f, unsigned v) {
  for (std::uint32_t a = 0; a < (1u << f.arity); ++a) {
    if (((a >> v) & 1u) == 0 &&
        func_bit(f, a) != func_bit(f, a | (1u << v))) {
      return false;
    }
  }
  return true;
}

/// Remove variable v (assumed non-essential) from f.
Func drop_var(const Func& f, unsigned v) {
  Func out;
  out.arity = static_cast<std::uint8_t>(f.arity - 1);
  for (std::uint32_t a = 0; a < (1u << out.arity); ++a) {
    const std::uint32_t low = a & ((1u << v) - 1);
    const std::uint32_t high = (a >> v) << (v + 1);
    if (func_bit(f, high | low)) {
      out.truth |= static_cast<std::uint16_t>(1u << a);
    }
  }
  return out;
}

/// All permutations of {0..n-1} for n <= 4.
const std::vector<std::vector<std::uint8_t>>& permutations(std::size_t n) {
  static const auto tables = [] {
    std::vector<std::vector<std::vector<std::uint8_t>>> all(5);
    static constexpr std::uint8_t kIdentity[] = {0, 1, 2, 3};
    for (std::size_t n = 0; n <= 4; ++n) {
      std::vector<std::uint8_t> perm(kIdentity, kIdentity + n);
      do {
        all[n].push_back(perm);
      } while (std::next_permutation(perm.begin(), perm.end()));
    }
    return all;
  }();
  return tables[n];
}

/// Try to express `f(vars)` as a single library cell. On success returns the
/// cell kind plus, for each cell pin p, the index of the variable wired to it.
struct CellMatch {
  Kind kind;
  std::vector<std::uint8_t> pin_to_var;
};

std::optional<CellMatch> match_cell(const Func& f) {
  const cell::Library& lib = cell::Library::instance();
  for (Kind k : lib.combinational_kinds()) {
    const cell::Info& ci = lib.info(k);
    if (ci.num_inputs != f.arity) continue;
    for (const auto& perm : permutations(f.arity)) {
      // pin p is wired to var perm[p]; check all assignments agree.
      bool ok = true;
      for (std::uint32_t a = 0; a < (1u << f.arity) && ok; ++a) {
        std::uint32_t pins = 0;
        for (unsigned p = 0; p < f.arity; ++p) {
          pins |= ((a >> perm[p]) & 1u) << p;
        }
        ok = (((ci.truth >> pins) & 1u) != 0) == func_bit(f, a);
      }
      if (ok) return CellMatch{k, perm};
    }
  }
  return std::nullopt;
}

class Optimizer {
public:
  explicit Optimizer(const Netlist& in) : in_(in) {}

  OptimizeResult run() {
    in_.check();
    stats_.gates_in = in_.num_gates();
    values_.assign(in_.num_wires(), Value{});

    // Sources map to themselves.
    for (WireId w : in_.all_wires()) {
      values_[w.index()] = Value::of(w);
    }

    const sim::Levelization level = sim::levelize(in_);
    for (GateId g : level.order) rewrite_gate(g);

    return rebuild();
  }

private:
  Value value_of(WireId w) const { return values_[w.index()]; }

  void rewrite_gate(GateId g) {
    const netlist::Gate& gate = in_.gate(g);
    const cell::Info& ci = cell::info(gate.kind);

    std::vector<Value> ins(gate.inputs.size());
    for (std::size_t p = 0; p < gate.inputs.size(); ++p) {
      ins[p] = value_of(gate.inputs[p]);
    }

    // Partially evaluate: substitute constants, dedup repeated wires, drop
    // non-essential variables.
    Func f{ci.truth, ci.num_inputs};
    std::vector<WireId> vars; // distinct non-const inputs, first-seen order

    // 1. Constants: repeatedly fix the lowest constant variable.
    {
      std::vector<Value> live = ins;
      for (std::size_t p = 0; p < live.size();) {
        if (live[p].is_const()) {
          Func out;
          out.arity = static_cast<std::uint8_t>(f.arity - 1);
          const unsigned v = static_cast<unsigned>(p);
          const bool c = live[p].const_value();
          for (std::uint32_t a = 0; a < (1u << out.arity); ++a) {
            const std::uint32_t low = a & ((1u << v) - 1);
            const std::uint32_t high = (a >> v) << (v + 1);
            const std::uint32_t full =
                high | low | (static_cast<std::uint32_t>(c) << v);
            if (func_bit(f, full)) {
              out.truth |= static_cast<std::uint16_t>(1u << a);
            }
          }
          f = out;
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(p));
        } else {
          ++p;
        }
      }
      // 2. Dedup repeated wires: merge var j into var i (i < j).
      for (std::size_t i = 0; i < live.size(); ++i) {
        for (std::size_t j = i + 1; j < live.size();) {
          if (live[j].wire == live[i].wire) {
            Func out;
            out.arity = static_cast<std::uint8_t>(f.arity - 1);
            for (std::uint32_t a = 0; a < (1u << out.arity); ++a) {
              const unsigned v = static_cast<unsigned>(j);
              const std::uint32_t low = a & ((1u << v) - 1);
              const std::uint32_t high = (a >> v) << (v + 1);
              const std::uint32_t dup =
                  ((a >> i) & 1u) << v; // var j := var i
              if (func_bit(f, high | low | dup)) {
                out.truth |= static_cast<std::uint16_t>(1u << a);
              }
            }
            f = out;
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
          } else {
            ++j;
          }
        }
      }
      // 3. Drop non-essential variables.
      for (std::size_t v = 0; v < live.size();) {
        if (f.arity > 0 && independent_of(f, static_cast<unsigned>(v))) {
          f = drop_var(f, static_cast<unsigned>(v));
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
        } else {
          ++v;
        }
      }
      vars.reserve(live.size());
      for (const Value& v : live) vars.push_back(v.wire);
    }

    const WireId out = gate.output;

    // Constant result?
    if (f.arity == 0) {
      values_[out.index()] = Value::constant(f.truth & 1u);
      ++stats_.folded_const;
      return;
    }
    // Identity?
    if (f.arity == 1 && f.truth == 0b10) {
      values_[out.index()] = Value::of(vars[0]);
      ++stats_.aliased;
      return;
    }
    // Inverter chains: INV(INV(x)) -> x.
    if (f.arity == 1 && f.truth == 0b01) {
      const auto it = defs_.find(vars[0]);
      if (it != defs_.end() && it->second.kind == Kind::Inv) {
        values_[out.index()] = Value::of(it->second.inputs[0]);
        ++stats_.aliased;
        return;
      }
    }

    // Map the reduced function back onto a library cell.
    Def def;
    if (const auto m = match_cell(f)) {
      def.kind = m->kind;
      def.inputs.resize(f.arity);
      for (unsigned p = 0; p < f.arity; ++p) {
        def.inputs[p] = vars[m->pin_to_var[p]];
      }
      if (def.kind != gate.kind) ++stats_.remapped;
    } else {
      // No single-cell realization (e.g. a & !s). Keep the original cell and
      // re-materialize the folded constants as tie wires during rebuild.
      def.kind = gate.kind;
      def.inputs.resize(ins.size());
      for (std::size_t p = 0; p < ins.size(); ++p) {
        def.inputs[p] = ins[p].is_const()
                            ? (ins[p].const_value() ? kTie1Marker : kTie0Marker)
                            : ins[p].wire;
      }
    }

    // Structural hashing: symmetric cells hash with sorted inputs.
    Def key = def;
    if (is_symmetric(def.kind)) {
      std::sort(key.inputs.begin(), key.inputs.end());
    }
    const auto [it, inserted] = cse_.try_emplace(key, out);
    if (!inserted) {
      values_[out.index()] = Value::of(it->second);
      ++stats_.cse_merged;
      return;
    }

    defs_.emplace(out, std::move(def));
    values_[out.index()] = Value::of(out);
  }

  static bool is_symmetric(Kind k) {
    switch (k) {
      case Kind::And2:
      case Kind::And3:
      case Kind::And4:
      case Kind::Nand2:
      case Kind::Nand3:
      case Kind::Nand4:
      case Kind::Or2:
      case Kind::Or3:
      case Kind::Or4:
      case Kind::Nor2:
      case Kind::Nor3:
      case Kind::Nor4:
      case Kind::Xor2:
      case Kind::Xnor2:
        return true;
      default:
        return false;
    }
  }

  OptimizeResult rebuild() {
    Netlist out(in_.name());

    std::vector<WireId> map(in_.num_wires(), WireId{});
    const auto mapped = [&](WireId old) {
      RIPPLE_ASSERT(map[old.index()].valid(), "wire '", in_.wire(old).name,
                    "' used before defined in rebuild");
      return map[old.index()];
    };

    for (WireId w : in_.primary_inputs()) {
      map[w.index()] = out.add_input(in_.wire(w).name);
    }
    std::vector<FlopId> new_flops(in_.num_flops());
    for (FlopId fl : in_.all_flops()) {
      const netlist::Flop& flop = in_.flop(fl);
      const WireId q = out.add_wire(in_.wire(flop.q).name);
      new_flops[fl.index()] = out.adopt_flop(flop.name, flop.init, q);
      map[flop.q.index()] = q;
    }

    WireId tie0, tie1;
    const auto tie = [&](bool v) {
      WireId& cache = v ? tie1 : tie0;
      if (!cache.valid()) {
        cache = out.add_gate_new(v ? Kind::Tie1 : Kind::Tie0, {},
                                 v ? "opt_tie1" : "opt_tie0");
      }
      return cache;
    };

    // Liveness: walk back from flop Ds and POs through surviving defs.
    std::vector<std::uint8_t> live(in_.num_wires(), 0);
    std::vector<WireId> stack;
    const auto mark = [&](Value v) {
      if (!v.is_const() && !live[v.wire.index()]) {
        live[v.wire.index()] = 1;
        stack.push_back(v.wire);
      }
    };
    for (FlopId fl : in_.all_flops()) mark(value_of(in_.flop(fl).d));
    for (WireId w : in_.primary_outputs()) mark(value_of(w));
    while (!stack.empty()) {
      const WireId w = stack.back();
      stack.pop_back();
      const auto it = defs_.find(w);
      if (it == defs_.end()) continue; // PI or flop Q
      for (WireId in : it->second.inputs) {
        if (in == kTie0Marker || in == kTie1Marker) continue;
        if (!live[in.index()]) {
          live[in.index()] = 1;
          stack.push_back(in);
        }
      }
    }

    // Emit surviving gates in dependency order (original levelized order is
    // a valid order for the rewritten defs too, since rewrites only ever
    // reference earlier wires).
    const sim::Levelization level = sim::levelize(in_);
    std::size_t emitted = 0;
    for (GateId g : level.order) {
      const WireId w = in_.gate(g).output;
      const auto it = defs_.find(w);
      if (it == defs_.end() || !live[w.index()]) continue;
      const Def& def = it->second;
      std::vector<WireId> ins(def.inputs.size());
      for (std::size_t p = 0; p < def.inputs.size(); ++p) {
        if (def.inputs[p] == kTie0Marker) {
          ins[p] = tie(false);
        } else if (def.inputs[p] == kTie1Marker) {
          ins[p] = tie(true);
        } else {
          ins[p] = mapped(def.inputs[p]);
        }
      }
      map[w.index()] = out.add_gate_new(def.kind, ins, in_.wire(w).name);
      ++emitted;
    }
    stats_.dead_removed = defs_.size() - emitted;

    // Materialize a Value as a wire of the new netlist, optionally forcing a
    // specific wire name (needed for primary outputs).
    const auto materialize = [&](Value v) -> WireId {
      if (v.is_const()) return tie(v.const_value());
      return mapped(v.wire);
    };

    for (FlopId fl : in_.all_flops()) {
      out.connect_flop(new_flops[fl.index()],
                       materialize(value_of(in_.flop(fl).d)));
    }
    for (WireId w : in_.primary_outputs()) {
      const Value v = value_of(w);
      WireId nw;
      if (!v.is_const() && v.wire == w) {
        nw = mapped(w); // port wire survived under its own name
      } else {
        // The port's driver was folded away; keep the port name via a buffer
        // (or tie) wire of the original name.
        if (v.is_const()) {
          nw = out.add_gate_new(v.const_value() ? Kind::Tie1 : Kind::Tie0, {},
                                in_.wire(w).name);
        } else {
          const WireId src = mapped(v.wire);
          nw = out.add_gate_new(Kind::Buf, {src}, in_.wire(w).name);
        }
      }
      out.mark_output(nw);
    }

    out.check();
    stats_.gates_out = out.num_gates();
    return OptimizeResult{std::move(out), stats_};
  }

  // Sentinel wire ids used in Def::inputs for re-materialized constants.
  static constexpr WireId kTie0Marker{WireId::kInvalid - 1};
  static constexpr WireId kTie1Marker{WireId::kInvalid - 2};

  const Netlist& in_;
  OptimizeStats stats_;
  std::vector<Value> values_;
  std::map<WireId, Def> defs_;
  std::map<Def, WireId> cse_;
};

} // namespace

OptimizeResult optimize(const netlist::Netlist& in) {
  return Optimizer(in).run();
}

} // namespace ripple::rtl
