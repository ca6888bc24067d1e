// Copyright (c) the CoTS reproduction authors.
//
// CotsFleet: shard-per-core scale-out of the CoTS engine (DESIGN.md §9).
//
// One CotsSpaceSaving engine scales by cooperative delegation *within* a
// shared structure; the fleet scales *across* structures by hash-
// partitioning the element space over N independent engines:
//
//   worker thread --> ShardOf(e) ----> shard 0: CotsSpaceSaving
//                        |        \--> shard 1: CotsSpaceSaving
//                        v         \-> ...
//                     (batch router: per-shard buffers, one
//                      OfferBatch per touched shard)
//
// Every occurrence of a key lands on exactly one shard, so shards share
// nothing on the ingest path — no delegation, no queue traffic, no cache
// lines cross shard boundaries. Global queries take the union of the
// per-shard snapshots with MergeDisjoint (core/summary_merge.h): each key
// keeps its home shard's estimate and error verbatim, and the bound on a
// fully unmonitored key is the max of the per-shard min_freqs (the key
// hashes to SOME shard, and that shard's bound covers it), not the sum.
// Partitioning only tightens per-shard error: each shard sees n_s <= n
// elements against the same m counters. The published global view goes
// through the same ViewPublisher as the engine's (cots/view_publisher.h).
//
// Lifecycle mirrors the engine (DESIGN.md §8) one level up: the fleet has
// its own Running/Draining/Stopped state and in-flight counter, and its
// offers resolve all-or-nothing — a batch is either counted in full
// (across every shard it touches) or refused in full. Stop() first wins
// the fleet-level Dekker handshake and waits out in-flight fleet offers
// (during which the shard engines are still Running, so a fleet offer
// that won the handshake can never be refused downstream), then stops the
// shards one by one. Failpoints "fleet.dispatch_shard", "fleet.drain_wait"
// and "fleet.drain_shard" perturb the router and drain interleavings.

#ifndef COTS_COTS_COTS_FLEET_H_
#define COTS_COTS_COTS_FLEET_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/counter.h"
#include "core/summary_merge.h"
#include "cots/cots_space_saving.h"
#include "cots/view_publisher.h"
#include "util/macros.h"
#include "util/status.h"

namespace cots {

struct CotsFleetOptions {
  /// Independent engine shards; 0 = one per hardware thread.
  size_t num_shards = 0;
  /// Per-shard engine configuration; every shard gets it verbatim. The
  /// fleet's total counter budget is num_shards * engine.capacity, and the
  /// per-shard error bound n_s / capacity only tightens versus a single
  /// engine fed the whole stream.
  CotsSpaceSavingOptions engine;
  /// Counters retained by merged global views; 0 = engine.capacity.
  size_t merge_capacity = 0;
  /// Fleet-level occurrences between automatic published-view refreshes
  /// (DESIGN.md §11): every interval, the offering thread folds the shards
  /// into one immutable global view (merged counters + summed stream
  /// length + composed min_freq) and publishes it, so fleet point queries
  /// are one wait-free probe instead of a shard lookup plus an O(shards)
  /// stream-length fold. 0 (default) = manual RefreshQueryView() only.
  /// Distinct from engine.view_refresh_interval, which would publish
  /// per-shard views — useful alone, but not what fleet-global queries
  /// consume.
  uint64_t view_refresh_interval = 0;

  Status Validate();
};

/// N hash-partitioned CotsSpaceSaving engines behind one ingest/query
/// facade. Thread-compatible the same way the engine is: register a
/// ThreadHandle per worker, destroy all handles before the fleet.
class CotsFleet : public FrequencySummary {
 public:
  /// Per-thread session holding one engine handle per shard plus the
  /// routing scratch. Single-threaded by contract, like the engine's.
  ///
  /// Like the engine's handle, this is a FrequencySummary: reads route to
  /// the home shard (Lookup) or fold the fleet (set queries), and
  /// AcquireQueryView pins this thread's slot in the fleet's view-epoch
  /// domain and returns the published global view — the lock-free path
  /// query threads should use.
  class ThreadHandle : public FrequencySummary {
   public:
    ~ThreadHandle() override;
    COTS_DISALLOW_COPY_AND_ASSIGN(ThreadHandle);

    /// Counts `weight` occurrences of e on its home shard. Returns false —
    /// nothing counted — once fleet Stop() has begun (see OfferBatch).
    bool Offer(ElementId e, uint64_t weight = 1);

    /// Routes the batch into per-shard buffers and dispatches one engine
    /// OfferBatch per touched shard (the shard batch inherits the engine's
    /// in-batch coalescing). All-or-nothing against Stop():
    /// the fleet-level handshake is taken once for the whole batch, so
    /// either every element is counted on its shard or the batch is
    /// refused in full — shards are never left half-applied. Buffers are
    /// flushed before returning; nothing is carried across calls.
    bool OfferBatch(const ElementId* elements, size_t count) {
      return OfferBatchBounded(elements, count) != OfferOutcome::kRefused;
    }

    /// OfferBatch with the overload deadline surfaced: kOverloaded means
    /// the batch WAS fully counted across its shards but at least one
    /// shard exceeded its overflow-spill budget — the fleet is falling
    /// behind and the caller should back off or shed (DESIGN.md §13).
    OfferOutcome OfferBatchBounded(const ElementId* elements, size_t count);

    // FrequencySummary:
    /// Lock-free point lookup on the element's home shard.
    std::optional<Counter> Lookup(ElementId e) const override;
    /// Merged global snapshot (O(shards * capacity) fold — the published
    /// view serves set queries without this cost).
    std::vector<Counter> CountersDescending() const override;
    uint64_t stream_length() const override;
    size_t num_counters() const override;
    /// Pins this thread's view-epoch slot and returns the fleet's
    /// published global view (nullptr before the first refresh). Wait-free.
    const PublishedView* AcquireQueryView() const override;
    void ReleaseQueryView() const override;

   private:
    friend class CotsFleet;
    explicit ThreadHandle(CotsFleet* fleet);

    CotsFleet* fleet_;
    std::vector<std::unique_ptr<CotsSpaceSaving::ThreadHandle>> shards_;
    // Slot in the fleet's view-epoch domain (view acquisition + retire).
    EpochParticipant* view_participant_ = nullptr;
    // Reused per call; per-shard so one pass over the input both
    // partitions and preserves per-shard arrival order.
    std::vector<std::vector<ElementId>> route_;
  };

  /// Validates options the same way the engine does (asserts in debug,
  /// clamps to a functional configuration in release).
  explicit CotsFleet(const CotsFleetOptions& options);
  ~CotsFleet() override;

  COTS_DISALLOW_COPY_AND_ASSIGN(CotsFleet);

  /// Registers the calling thread with every shard. Returns nullptr when
  /// any shard is out of sessions (engine.max_threads bounds each shard).
  std::unique_ptr<ThreadHandle> RegisterThread();

  /// Quiesces the fleet: wins the fleet-level handshake (subsequent offers
  /// are refused whole), waits out in-flight fleet offers, then stops each
  /// shard in turn. Idempotent and thread-safe; concurrent callers block
  /// until the structure is frozen. After Stop() the merged views are
  /// stable and exact with respect to everything that was counted.
  void Stop();

  EngineState state() const { return state_.load(std::memory_order_acquire); }

  size_t num_shards() const { return shards_.size(); }
  /// Home shard of e (Lemire reduction over the mixed key).
  size_t ShardOf(ElementId e) const;
  /// Direct shard access (tests, diagnostics). Do not Stop() a shard
  /// directly — the fleet's drain protocol owns shard lifecycle.
  CotsSpaceSaving& shard(size_t i) { return *shards_[i]; }
  const CotsSpaceSaving& shard(size_t i) const { return *shards_[i]; }

  /// Disjoint merge of every shard's snapshot (truncated to
  /// merge_capacity counters). Each shard is snapshotted in the engine's
  /// read order (shed, counters, then min_freq and N), so live calls see a
  /// racy-but-valid snapshot; call after Stop() for exact totals.
  CounterSet GlobalView() const;

  /// Bound on any unmonitored element's global frequency: the max of the
  /// per-shard bounds (each element lives on exactly one shard). Shard
  /// bounds already include their shed weight, so this is sound over the
  /// full offered stream (DESIGN.md §13).
  uint64_t MinFreq() const;

  /// Absorbs a batch that admission control chose to shed: each element's
  /// weight is accounted against its HOME shard's shed_weight (the same
  /// routing an offer would take), so per-shard bounds widen exactly where
  /// the lost occurrences would have landed and the disjoint merge
  /// composition stays sound. Nothing touches the summaries; conservation
  /// is offered = stream_length() + shed_weight(). Returns false — nothing
  /// absorbed — once Stop() has begun, mirroring OfferBatch's
  /// all-or-nothing handshake so accounting can never race the freeze.
  bool Shed(const ElementId* elements, size_t count);

  /// Total shed weight across all shards.
  uint64_t shed_weight() const;

  /// Total kOverloaded batches reported across all shards.
  uint64_t deadline_misses() const;

  // FrequencySummary over the merged global view. Lookup routes to the
  // home shard; CountersDescending folds all shards (O(shards * capacity)
  // — prefer GlobalView() when the bound matters too).
  std::optional<Counter> Lookup(ElementId e) const override;
  std::vector<Counter> CountersDescending() const override;
  uint64_t stream_length() const override;
  size_t num_counters() const override;

  /// Folds the shards into a global view and publishes it now (see
  /// CotsSpaceSaving::RefreshQueryView for the staleness contract: on
  /// return the view reflects a fold begun after this call).
  void RefreshQueryView();

  /// The published global view's refresh number (0 = never published).
  uint64_t query_view_sequence() const { return view_.sequence(); }

  /// Fleet-level view acquisition for unregistered threads (shared slot
  /// behind a mutex held until ReleaseQueryView). Registered threads
  /// should acquire through their ThreadHandle (lock-free).
  const PublishedView* AcquireQueryView() const override;
  void ReleaseQueryView() const override;

 private:
  CotsFleetOptions options_;  // validated
  std::vector<std::unique_ptr<CotsSpaceSaving>> shards_;

  std::atomic<EngineState> state_{EngineState::kRunning};
  /// Fleet offers between the handshake and their last shard dispatch;
  /// Stop() waits for zero before touching any shard (see cots_fleet.cc).
  std::atomic<uint64_t> inflight_offers_{0};

  // Published global view (DESIGN.md §11). The fleet has no engine-level
  // EBR of its own, so view reclamation gets a dedicated epoch domain:
  // readers pin a view_epochs_ slot around the pointer load, and the
  // publisher retires the superseded view into it.
  mutable EpochManager view_epochs_;
  mutable std::mutex view_query_mu_;
  EpochParticipant* const view_query_participant_;
  ViewPublisher view_;
};

}  // namespace cots

#endif  // COTS_COTS_COTS_FLEET_H_
