#include "checker.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace perfbench {
namespace {

void Violation(CheckReport* r, const std::string& what) {
  ++r->violations;
  if (r->messages.size() < 8) r->messages.push_back(what);
}

template <typename... Args>
std::string Fmt(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt,
                static_cast<unsigned long long>(args)...);
  return buf;
}

}  // namespace

CheckReport CheckGuarantees(const CheckInput& in) {
  CheckReport r;
  const cots::ExactCounter& truth = *in.truth;

  if (in.counted + in.shed != in.offered) {
    Violation(&r, Fmt("conservation: counted %llu + shed %llu != offered "
                      "%llu",
                      in.counted, in.shed, in.offered));
  }
  if (truth.stream_length() != in.offered) {
    Violation(&r, Fmt("reference counted %llu elements, offered %llu",
                      truth.stream_length(), in.offered));
  }

  const uint64_t err_bound =
      in.capacity == 0 ? ~0ull : in.offered / in.capacity + in.shed;
  std::unordered_set<cots::ElementId> reported_keys;
  reported_keys.reserve(in.reported.size() * 2);
  for (const cots::Counter& c : in.reported) {
    reported_keys.insert(c.key);
    const uint64_t t = truth.Count(c.key);
    if (c.GuaranteedCount() > t || t > c.count + in.shed) {
      Violation(&r, Fmt("key %llu: true %llu outside [est %llu - err %llu, "
                        "est + shed]",
                        c.key, t, c.count, c.error));
    }
    if (c.error > err_bound) {
      Violation(&r, Fmt("key %llu: err %llu above N/m + shed = %llu", c.key,
                        c.error, err_bound));
    }
  }

  // A left-out key is unmonitored (true <= min_freq) or, when the report is
  // only a prefix, monitored below the last reported estimate (plus shed).
  uint64_t left_out_bound = in.min_freq;
  if (in.prefix_only && !in.reported.empty()) {
    left_out_bound =
        std::max(left_out_bound, in.reported.back().count + in.shed);
  }
  for (const auto& [key, count] : truth.counts()) {
    if (count > left_out_bound && reported_keys.count(key) == 0) {
      Violation(&r, Fmt("key %llu: true %llu above the left-out bound %llu "
                        "but not reported",
                        key, count, left_out_bound));
    }
  }

  // Recall against the exact top-k, tie-aware: every key whose true count
  // reaches the exact k-th frequency belongs to the exact top-k.
  const size_t k = std::min(in.topk, truth.distinct());
  if (k > 0) {
    const uint64_t kth = truth.KthFrequency(k);
    size_t hits = 0;
    for (size_t i = 0; i < std::min(k, in.reported.size()); ++i) {
      if (truth.Count(in.reported[i].key) >= kth) ++hits;
    }
    r.topk_recall = static_cast<double>(hits) / static_cast<double>(k);
  }
  return r;
}

}  // namespace perfbench
