// Reproduces Table 2 of the paper: AVR MATE performance — effective MATEs,
// average input count, masked fault-space fraction of the complete MATE set,
// and the top-{10,50,100,200} subsets selected on one program and evaluated
// on both (cross-validation).
#include "bench/table_mates.hpp"

int main(int argc, char** argv) {
  using namespace ripple::pipeline;
  Harness h(argc, argv, "table2_avr",
            "Table 2: AVR MATE performance on the fib/conv traces",
            kThreads | kCsv | kDepth | kCycles | kTraceChunkCycles);
  const CoreSetup avr = h.setup(CoreKind::Avr);
  ripple::bench::run_mate_performance_table(h, avr, "Table 2");
  return 0;
}
