// Copyright (c) the CoTS reproduction authors.
//
// ViewPublisher: the one publication protocol behind the engine's and the
// fleet's epoch-published query views (DESIGN.md §11.2). The owner passes
// in a snapshot callable and keeps its epoch domain; the publisher owns
// the view pointer (one acq_rel exchange per publish, acquire loads under
// the reader's epoch pin, the superseded view EBR-retired), the refresh
// claim (auto-refresh skips when it is contended, Refresh() waits), the
// offers-since-refresh counter and "view.staleness_offers" gauge, the
// sequence number, and the "view.publish" trace span and failpoint.

#ifndef COTS_COTS_VIEW_PUBLISHER_H_
#define COTS_COTS_VIEW_PUBLISHER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "core/published_view.h"
#include "core/summary_merge.h"
#include "util/ebr.h"
#include "util/macros.h"

namespace cots {

class ViewPublisher {
 public:
  /// Takes a consistent snapshot (DESIGN.md §11.3), pinning through
  /// `participant` where the owner's structure needs a pin.
  using SnapshotFn = std::function<CounterSet(EpochParticipant* participant)>;

  /// `refresh_interval`: counted occurrences between auto-refreshes (0 =
  /// Refresh() only). `shared_participant` is the owner's slot for
  /// unregistered threads, guarded by `shared_mu`.
  ViewPublisher(uint64_t refresh_interval, SnapshotFn snapshot,
                std::mutex* shared_mu, EpochParticipant* shared_participant);
  /// Frees the current view: destroy only once no reader holds it. The
  /// owner's epoch domain frees the retired ones.
  ~ViewPublisher();

  COTS_DISALLOW_COPY_AND_ASSIGN(ViewPublisher);

  /// Called after a counted offer of `weight` occurrences, outside the
  /// offer's epoch guard. Never blocks: skips if another thread refreshes.
  void MaybeAutoRefresh(EpochParticipant* participant, uint64_t weight);

  /// Publishes now, through the shared slot. Waits out any in-flight
  /// refresh, so on return the view reflects a snapshot begun after the
  /// call.
  void Refresh();

  /// Pins `participant` and returns the current view (nullptr, with the
  /// pin dropped, before the first publication). Wait-free.
  const PublishedView* Acquire(EpochParticipant* participant) const;
  void Release(EpochParticipant* participant) const { participant->Exit(); }

  /// Acquire through the shared slot; `shared_mu` stays held until
  /// ReleaseShared so no other user of the slot can drop its pin.
  const PublishedView* AcquireShared() const;
  void ReleaseShared() const;

  /// The current view's refresh number (0 = never published).
  uint64_t sequence() const {
    return sequence_.load(std::memory_order_acquire);
  }

 private:
  // Caller holds the claim; the superseded view retires via `participant`.
  void Publish(EpochParticipant* participant);

  const uint64_t refresh_interval_;
  const SnapshotFn snapshot_;
  std::mutex* const shared_mu_;
  EpochParticipant* const shared_participant_;

  std::atomic<const PublishedView*> view_{nullptr};
  std::atomic<bool> claim_{false};
  std::atomic<uint64_t> offers_since_refresh_{0};
  std::atomic<uint64_t> sequence_{0};
};

}  // namespace cots

#endif  // COTS_COTS_VIEW_PUBLISHER_H_
