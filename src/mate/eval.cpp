#include "mate/eval.hpp"

#include "util/stats.hpp"

namespace ripple::mate {

namespace detail {

void finalize_eval(const MateSet& set, EvalResult& result) {
  std::vector<double> input_counts;
  for (std::size_t m = 0; m < set.mates.size(); ++m) {
    if (result.per_mate[m].triggers > 0) {
      ++result.effective_mates;
      input_counts.push_back(
          static_cast<double>(set.mates[m].num_inputs()));
    }
  }
  result.avg_inputs = mean(input_counts);
  result.sd_inputs = stddev(input_counts);
}

} // namespace detail

} // namespace ripple::mate
