// Copyright (c) the CoTS reproduction authors.

#include "cots/view_publisher.h"

#include <thread>
#include <utility>

#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace cots {

ViewPublisher::ViewPublisher(uint64_t refresh_interval, SnapshotFn snapshot,
                             std::mutex* shared_mu,
                             EpochParticipant* shared_participant)
    : refresh_interval_(refresh_interval),
      snapshot_(std::move(snapshot)),
      shared_mu_(shared_mu),
      shared_participant_(shared_participant) {}

ViewPublisher::~ViewPublisher() {
  delete view_.exchange(nullptr, std::memory_order_acq_rel);
}

void ViewPublisher::Publish(EpochParticipant* participant) {
  COTS_TRACE_SPAN(span, "view.publish");
  const uint64_t seq = sequence_.load(std::memory_order_relaxed) + 1;
  span.SetArg(seq);
  const PublishedView* next = PublishedView::Build(snapshot_(participant), seq);
  COTS_FAILPOINT("view.publish");
  const PublishedView* prev = view_.exchange(next, std::memory_order_acq_rel);
  sequence_.store(seq, std::memory_order_release);
  COTS_COUNTER_INC("view.refreshes");
  if (prev != nullptr) {
    // Readers of `prev` hold epoch pins; EBR frees it after their Exit.
    EpochGuard guard(participant);  // Retire needs an active participant
    participant->Retire(const_cast<PublishedView*>(prev));
  }
}

void ViewPublisher::MaybeAutoRefresh(EpochParticipant* participant,
                                     uint64_t weight) {
  if (refresh_interval_ == 0) return;
  const uint64_t before =
      offers_since_refresh_.fetch_add(weight, std::memory_order_relaxed);
  // View staleness in offers as this thread sees it (kMax: worst thread).
  COTS_GAUGE_SET("view.staleness_offers", before + weight);
  if (before + weight < refresh_interval_) return;
  // Someone else mid-publish: their view is fresh enough, skip.
  bool expected = false;
  if (!claim_.compare_exchange_strong(expected, true,
                                      std::memory_order_acquire)) {
    return;
  }
  offers_since_refresh_.store(0, std::memory_order_relaxed);
  Publish(participant);
  claim_.store(false, std::memory_order_release);
}

void ViewPublisher::Refresh() {
  // An in-flight refresh may have snapshotted before offers this caller
  // already observed, so wait it out and publish a fresh one.
  bool expected = false;
  while (!claim_.compare_exchange_weak(expected, true,
                                       std::memory_order_acquire)) {
    expected = false;
    std::this_thread::yield();
  }
  offers_since_refresh_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(*shared_mu_);
    Publish(shared_participant_);
  }
  claim_.store(false, std::memory_order_release);
}

const PublishedView* ViewPublisher::Acquire(
    EpochParticipant* participant) const {
  // Pin before the load: a view unreachable before our Enter() is freed two
  // epochs later at the earliest, so whatever we load stays alive.
  participant->Enter();
  const PublishedView* view = view_.load(std::memory_order_acquire);
  if (view == nullptr) participant->Exit();
  return view;
}

const PublishedView* ViewPublisher::AcquireShared() const {
  shared_mu_->lock();
  const PublishedView* view = Acquire(shared_participant_);
  if (view == nullptr) shared_mu_->unlock();
  return view;
}

void ViewPublisher::ReleaseShared() const {
  shared_participant_->Exit();
  shared_mu_->unlock();
}

}  // namespace cots
