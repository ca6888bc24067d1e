// Copyright (c) the CoTS reproduction authors.

#include "core/published_view.h"

#include <algorithm>
#include <cassert>

namespace cots {
namespace {

// Smallest power of two >= 2*n (load factor <= 0.5), floor of 8 slots so
// tiny views still probe a real table.
size_t IndexCapacityFor(size_t n) {
  size_t cap = 8;
  while (cap < n * 2) cap <<= 1;
  return cap;
}

}  // namespace

const PublishedView* PublishedView::Build(const CounterSet& snapshot,
                                          uint64_t sequence) {
  auto* view = new PublishedView();
  view->stream_length_ = snapshot.stream_length();
  view->min_freq_ = snapshot.min_freq();
  view->sequence_ = sequence;
  view->shed_weight_ = snapshot.shed_weight();

  const std::vector<Counter>& counters = snapshot.counters();
  const size_t n = counters.size();
  view->keys_.reserve(n);
  view->counts_.reserve(n);
  view->errors_.reserve(n);
  for (const Counter& c : counters) {
    view->keys_.push_back(c.key);
    view->counts_.push_back(c.count);
    view->errors_.push_back(c.error);
  }

  const size_t cap = IndexCapacityFor(n);
  view->index_mask_ = cap - 1;
  view->index_ranks_.assign(cap, kEmptySlot);
  for (size_t rank = 0; rank < n; ++rank) {
    size_t slot = static_cast<size_t>(Mix(view->keys_[rank])) & view->index_mask_;
    while (view->index_ranks_[slot] != kEmptySlot) {
      // A key appears at most once in a CounterSet; a duplicate would
      // corrupt Rank().
      assert(view->keys_[view->index_ranks_[slot]] != view->keys_[rank]);
      slot = (slot + 1) & view->index_mask_;
    }
    view->index_ranks_[slot] = static_cast<uint32_t>(rank);
  }
  return view;
}

std::vector<Counter> PublishedView::TopK(size_t k) const {
  const size_t n = std::min(k, size());
  std::vector<Counter> out;
  out.reserve(n);
  for (size_t rank = 0; rank < n; ++rank) out.push_back(At(rank));
  return out;
}

}  // namespace cots
