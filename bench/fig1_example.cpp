// Reproduces Figure 1 of the paper on the running example circuit:
//  (a) the fault cone of input d with its border wires and the MATEs the
//      search derives (including the paper's (!f & h)),
//  (b) the fault-space grid over 5 wires x 8 cycles with benign points
//      marked after per-cycle MATE evaluation.
#include <iostream>

#include "mate/eval.hpp"
#include "mate/example.hpp"
#include "mate/faultspace.hpp"
#include "mate/search.hpp"
#include "netlist/dot.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/harness.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/table.hpp"

using namespace ripple;
using namespace ripple::mate;

int main(int argc, char** argv) {
  // No --csv, --cycles or --trace-chunk-cycles: the figure is text over a
  // fixed 8-cycle in-memory trace.
  pipeline::Harness h(argc, argv, "fig1_example",
                      "Figure 1: MATEs and fault-space pruning on the "
                      "running example circuit",
                      pipeline::kThreads | pipeline::kDepth);
  const Figure1Circuit fig = build_figure1_circuit();
  const netlist::Netlist& n = fig.netlist;

  std::cout << "=== Figure 1a: fault cone for input wire d ===\n";
  const FaultCone cone = compute_cone(n, fig.d);
  std::cout << "cone wires:  ";
  for (WireId w : cone.wires) std::cout << n.wire(w).name << ' ';
  std::cout << "\nborder wires: ";
  for (WireId w : cone.border_wires) std::cout << n.wire(w).name << ' ';
  std::cout << "\n\n";

  const std::vector<WireId> faulty = {fig.a, fig.b, fig.c, fig.d, fig.e};
  const SearchResult r = h.pipe().find_mates(
      n, pipeline::fingerprint(n), faulty, h.params(), "figure-1 inputs");
  std::cout << "MATEs found by the heuristic search:\n";
  for (const Mate& m : r.set.mates) {
    std::cout << "  " << m.cube.to_string(n) << " masks {";
    for (std::size_t i = 0; i < m.masked_wires.size(); ++i) {
      std::cout << (i ? ", " : "") << n.wire(m.masked_wires[i]).name;
    }
    std::cout << "}\n";
  }
  for (const WireOutcome& o : r.outcomes) {
    if (o.status == WireStatus::Unmaskable) {
      std::cout << "  (wire " << n.wire(o.wire).name
                << " is unmaskable: a propagation path without "
                   "fault-masking capability exists)\n";
    }
  }

  std::cout << "\n=== Figure 1b: fault-space pruning over 8 cycles ===\n";
  // Drive the inputs with a fixed 8-cycle schedule (b low in the first two
  // cycles, a low in the next two, mirroring the paper's narration that the
  // MATEs !b and !a trigger early on).
  const std::uint8_t patterns[5] = {
      0b11110011, // a: low in cycles 2,3
      0b11111100, // b: low in cycles 0,1
      0b10100101, // c
      0b11011010, // d
      0b00101101, // e
  };
  sim::Simulator sim(n);
  const WireId ins[5] = {fig.a, fig.b, fig.c, fig.d, fig.e};
  sim::Trace trace =
      sim::record_trace(sim, 8, [&](sim::Simulator& s, std::size_t c) {
        for (int i = 0; i < 5; ++i) {
          s.set_input(ins[i], (patterns[i] >> c) & 1u);
        }
      });

  const sim::TransposedTrace words(trace);
  sim::TransposedTraceSource source(words);
  std::cout << render_fault_grid(n, r.set, source);

  const EvalResult eval = h.pipe().evaluate_stream(
      r.set, source, pipeline::fingerprint(trace), "figure-1");
  std::cout << "\nfault space: " << eval.fault_space() << " points, benign: "
            << eval.masked_faults << " ("
            << fmt_percent(eval.masked_fraction()) << ")\n";

  std::cout << "\n=== Graphviz dump (cone of d highlighted) ===\n";
  netlist::DotOptions opt;
  opt.highlight_wires = cone.wires;
  opt.highlight_gates = cone.gates;
  std::cout << to_dot(n, opt);
  return 0;
}
