// The golden run every hafi::Campaign streams once (its MATE pruning,
// confinement labels and pass snapshots), built the way
// CampaignPipeline::campaign builds it: the runtime's workload as a
// pipeline::ChunkedTraceStream. The pipeline here has no cache
// directory, so every stream() simulates the workload afresh.
#pragma once

#include <cstddef>
#include <memory>

#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"

namespace ripple::pipeline {

[[nodiscard]] inline std::unique_ptr<ChunkedTraceStream> golden_run(
    const CoreRuntime& runtime, std::size_t cycles) {
  static CampaignPipeline uncached;
  return std::make_unique<ChunkedTraceStream>(uncached, runtime, cycles);
}

} // namespace ripple::pipeline
