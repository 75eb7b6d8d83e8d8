// Reproduces Table 3 of the paper: MSP430 MATE performance (same layout as
// Table 2).
#include "bench/table_mates.hpp"

int main(int argc, char** argv) {
  using namespace ripple::pipeline;
  Harness h(argc, argv, "table3_msp430",
            "Table 3: MSP430 MATE performance on the fib/conv traces",
            kThreads | kCsv | kDepth | kCycles | kTraceChunkCycles);
  const CoreSetup msp = h.setup(CoreKind::Msp430);
  ripple::bench::run_mate_performance_table(h, msp, "Table 3");
  return 0;
}
