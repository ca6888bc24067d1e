#include "core/summary_merge.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace cots {
namespace {

bool ByCountDescending(const Counter& a, const Counter& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

}  // namespace

CounterSet::CounterSet(std::vector<Counter> counters, uint64_t min_freq,
                       uint64_t n, uint64_t shed_weight)
    : counters_(std::move(counters)),
      min_freq_(min_freq),
      n_(n),
      shed_weight_(shed_weight) {
  // Summary snapshots arrive sorted; only check those.
  if (!std::is_sorted(counters_.begin(), counters_.end(), ByCountDescending)) {
    std::sort(counters_.begin(), counters_.end(), ByCountDescending);
  }
  BuildIndex();
}

CounterSet CounterSet::FromSummary(const FrequencySummary& summary,
                                   uint64_t min_freq) {
  return CounterSet(summary.CountersDescending(), min_freq,
                    summary.stream_length());
}

CounterSet CounterSet::FromShedSummary(std::vector<Counter> counters,
                                       uint64_t min_freq, uint64_t n,
                                       uint64_t shed_weight) {
  // A shed occurrence of a monitored key is one increment the counter
  // never received: true <= count + shed. Widening the (symmetric) error
  // by shed keeps [count - error, count + error] a superset of the real
  // interval [count - error, count + shed].
  for (Counter& c : counters) c.error += shed_weight;
  return CounterSet(std::move(counters), min_freq, n, shed_weight);
}

void CounterSet::BuildIndex() {
  index_.clear();
  index_.reserve(counters_.size() * 2);
  for (size_t i = 0; i < counters_.size(); ++i) {
    index_.emplace(counters_[i].key, i);
  }
}

std::optional<Counter> CounterSet::Lookup(ElementId e) const {
  auto it = index_.find(e);
  if (it == index_.end()) return std::nullopt;
  return counters_[it->second];
}

CounterSet CombineCounterSets(const CounterSet& a, const CounterSet& b,
                              size_t capacity) {
  // An absent side may have counted the key up to its minimum frequency
  // before any eviction, so the merged estimate (and its error) adds that
  // side's min_freq — the merged estimate must stay an upper bound.
  std::vector<Counter> merged;
  merged.reserve(a.num_counters() + b.num_counters());
  for (const Counter& ca : a.counters()) {
    Counter c = ca;
    if (std::optional<Counter> cb = b.Lookup(ca.key); cb.has_value()) {
      c.count += cb->count;
      c.error += cb->error;
    } else {
      c.count += b.min_freq();
      c.error += b.min_freq();
    }
    merged.push_back(c);
  }
  for (const Counter& cb : b.counters()) {
    if (a.Lookup(cb.key).has_value()) continue;  // already merged above
    Counter c = cb;
    c.count += a.min_freq();
    c.error += a.min_freq();
    merged.push_back(c);
  }
  std::sort(merged.begin(), merged.end(), ByCountDescending);

  // Unmonitored-key bound: an unmonitored key may have been counted up to
  // min_freq in every part, so the bounds compose by sum.
  uint64_t min_freq = a.min_freq() + b.min_freq();
  const uint64_t shed = a.shed_weight() + b.shed_weight();
  if (capacity != 0 && merged.size() > capacity) {
    // Keys dropped by truncation may have estimates above the composed
    // bound; the merged bound on any unmonitored key must cover them, plus
    // the shed occurrences a dropped key may have lost.
    min_freq = std::max(min_freq, merged[capacity].count + shed);
    merged.resize(capacity);
  }
  return CounterSet(std::move(merged), min_freq,
                    a.stream_length() + b.stream_length(), shed);
}

CounterSet MergeSerial(const std::vector<const FrequencySummary*>& parts,
                       const std::vector<uint64_t>& min_freqs,
                       size_t capacity) {
  assert(parts.size() == min_freqs.size());
  if (parts.empty()) return CounterSet();
  CounterSet acc = CounterSet::FromSummary(*parts[0], min_freqs[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    acc = CombineCounterSets(
        acc, CounterSet::FromSummary(*parts[i], min_freqs[i]), capacity);
  }
  return acc;
}

CounterSet MergeHierarchical(const std::vector<const FrequencySummary*>& parts,
                             const std::vector<uint64_t>& min_freqs,
                             size_t capacity) {
  assert(parts.size() == min_freqs.size());
  if (parts.empty()) return CounterSet();
  std::vector<CounterSet> level;
  level.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    level.push_back(CounterSet::FromSummary(*parts[i], min_freqs[i]));
  }
  while (level.size() > 1) {
    const size_t pairs = level.size() / 2;
    std::vector<CounterSet> next(pairs + level.size() % 2);
    {
      std::vector<std::thread> workers;
      workers.reserve(pairs);
      for (size_t p = 0; p < pairs; ++p) {
        workers.emplace_back([&level, &next, capacity, p] {
          next[p] =
              CombineCounterSets(level[2 * p], level[2 * p + 1], capacity);
        });
      }
      for (std::thread& w : workers) w.join();
      // The implicit join here is the per-level synchronization barrier the
      // paper identifies as hierarchical merge's overhead (Section 4.3).
    }
    if (level.size() % 2 == 1) next.back() = std::move(level.back());
    level = std::move(next);
  }
  return std::move(level.front());
}

CounterSet MergeDisjoint(const std::vector<CounterSet>& parts,
                         size_t capacity) {
  size_t total = 0;
  for (const CounterSet& part : parts) total += part.num_counters();
  std::vector<Counter> merged;
  merged.reserve(total);
  uint64_t min_freq = 0;
  uint64_t n = 0;
  uint64_t shed = 0;
  for (const CounterSet& part : parts) {
    merged.insert(merged.end(), part.counters().begin(),
                  part.counters().end());
    min_freq = std::max(min_freq, part.min_freq());
    n += part.stream_length();
    shed += part.shed_weight();
  }
  if (capacity != 0 && merged.size() > capacity) {
    // The first dropped estimate may exceed every part's bound; it (plus
    // the shed any dropped key may have lost) bounds every dropped key.
    std::nth_element(merged.begin(), merged.begin() + capacity, merged.end(),
                     ByCountDescending);
    min_freq = std::max(min_freq, merged[capacity].count + shed);
    merged.resize(capacity);
  }
  return CounterSet(std::move(merged), min_freq, n, shed);
}

}  // namespace cots
