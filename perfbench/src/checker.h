// The one correctness checker every workload runs on every run. It holds a
// reported summary to the four Space Saving guarantees against the exact
// counts of the stream that was offered:
//
//   1. conservation:   counted + shed == offered
//   2. bracketing:     est - err <= true <= est + shed   (shed = 0: <= est)
//   3. error bound:    err <= N / m + shed
//   4. completeness:   no key left out of the report is above the report's
//                      bound for left-out keys
//
// Shed occurrences widen every bound by the shed weight (the library folds
// them into err and min_freq), so the guarantees hold over the full
// offered stream, counted or not.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/counter.h"
#include "stream/exact_counter.h"

namespace perfbench {

struct CheckInput {
  const cots::ExactCounter* truth = nullptr;  // over the offered stream
  uint64_t offered = 0;
  uint64_t counted = 0;
  uint64_t shed = 0;
  // Reported counters, descending by estimate. When `prefix_only`, this is
  // only the head of a larger summary (a printed top-k), so a left-out key
  // may still be monitored with an estimate up to the last reported one.
  std::vector<cots::Counter> reported;
  bool prefix_only = false;
  uint64_t min_freq = 0;  // bound on any unmonitored key (includes shed)
  size_t capacity = 0;    // m: counters of the summary each key lives in
  size_t topk = 100;      // for topk_recall
};

struct CheckReport {
  uint64_t violations = 0;
  std::vector<std::string> messages;  // first few violations, readable
  double topk_recall = 0;  // share of the exact top-k found in the report's
};

CheckReport CheckGuarantees(const CheckInput& in);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
