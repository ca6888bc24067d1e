#include "cots/cots_fleet.h"

#include <cassert>
#include <thread>

#include "cots/inflight_scope.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/thread_utils.h"
#include "util/trace.h"

namespace cots {

namespace {

// Full murmur3 finalizer (both multiplies), unlike the engines' in-table
// BucketFor which gets away with one. ShardOf takes the product's HIGH
// bits (Lemire reduction), and after a single multiply those are still
// nearly linear in the key — a dense small-key space (0..63) then routes
// almost everything to the last shard, overflowing its capacity while the
// others sit empty. The second multiply diffuses the high bits; the
// in-shard bucket index takes low bits of the shard engines' own mix, so
// the two splits stay effectively independent.
inline uint64_t MixKey(ElementId e) {
  uint64_t h = e;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

CotsFleetOptions ValidatedOptions(CotsFleetOptions options) {
  const Status status = options.Validate();
  assert(status.ok() && "invalid CotsFleetOptions");
  (void)status;
  // Release-build clamps, mirroring the engine's ValidatedOptions: a fleet
  // must never be constructed in a shape that can hang its own teardown.
  if (options.num_shards == 0) options.num_shards = 1;
  if (options.engine.capacity == 0 && options.engine.epsilon <= 0.0) {
    options.engine.capacity = 1;
  }
  if (options.merge_capacity == 0) {
    options.merge_capacity = options.engine.capacity;
  }
  return options;
}

}  // namespace

Status CotsFleetOptions::Validate() {
  if (num_shards == 0) {
    num_shards = static_cast<size_t>(HardwareConcurrency());
    if (num_shards == 0) num_shards = 1;
  }
  if (num_shards > 4096) {
    return Status::InvalidArgument("num_shards must be at most 4096");
  }
  Status engine_status = engine.Validate();
  if (!engine_status.ok()) return engine_status;
  if (merge_capacity == 0) merge_capacity = engine.capacity;
  return Status::OK();
}

CotsFleet::CotsFleet(const CotsFleetOptions& options)
    : options_(ValidatedOptions(options)),
      view_epochs_(options_.engine.max_threads),
      view_query_participant_(view_epochs_.Register()),
      view_(options_.view_refresh_interval,
            [this](EpochParticipant*) { return GlobalView(); },
            &view_query_mu_, view_query_participant_) {
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<CotsSpaceSaving>(options_.engine));
  }
  assert(view_query_participant_ != nullptr);
}

CotsFleet::~CotsFleet() {
  // Freeze the fleet before any shard destructs: a shard destructor also
  // stops itself, but going through the fleet protocol first guarantees no
  // fleet-level offer is mid-dispatch while shards tear down.
  Stop();
  // All handles are destroyed before the fleet (API contract), so no view
  // pin can be live; view_ frees the current view and retired predecessors
  // drain with the epoch domain.
  if (view_query_participant_ != nullptr) {
    view_epochs_.Unregister(view_query_participant_);
  }
  view_epochs_.DrainAll();
}

size_t CotsFleet::ShardOf(ElementId e) const {
  // Lemire reduction: high bits of mix * num_shards, uniform without a
  // division and without requiring a power-of-two shard count.
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(MixKey(e)) * shards_.size()) >> 64);
}

std::unique_ptr<CotsFleet::ThreadHandle> CotsFleet::RegisterThread() {
  std::unique_ptr<ThreadHandle> handle(new ThreadHandle(this));
  for (const auto& shard_handle : handle->shards_) {
    if (shard_handle == nullptr) return nullptr;
  }
  if (handle->view_participant_ == nullptr) return nullptr;
  return handle;
}

void CotsFleet::Stop() {
  EngineState expected = EngineState::kRunning;
  if (!state_.compare_exchange_strong(expected, EngineState::kDraining,
                                      std::memory_order_seq_cst)) {
    while (state_.load(std::memory_order_acquire) != EngineState::kStopped) {
      std::this_thread::yield();
    }
    return;
  }
  COTS_TRACE_SPAN(span, "fleet.stop_drain");
  // Every offer that won the handshake before the CAS above is visible in
  // inflight_offers_; every later offer observes Draining and refuses
  // before touching any shard. Shards stay Running through this wait, so a
  // winning offer's per-shard dispatches cannot be refused downstream —
  // that is what makes fleet offers all-or-nothing.
  while (inflight_offers_.load(std::memory_order_seq_cst) != 0) {
    COTS_FAILPOINT("fleet.drain_wait");
    std::this_thread::yield();
  }
  for (const auto& shard : shards_) {
    // Perturbation point between shard drains: stopping shard k while
    // k+1..N still answer queries widens the window where a global view
    // folds stopped and running shards together.
    COTS_FAILPOINT("fleet.drain_shard");
    shard->Stop();
  }
  state_.store(EngineState::kStopped, std::memory_order_release);
}

CotsFleet::ThreadHandle::ThreadHandle(CotsFleet* fleet)
    : fleet_(fleet),
      shards_(fleet->num_shards()),
      route_(fleet->num_shards()) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s] = fleet->shards_[s]->RegisterThread();
  }
  view_participant_ = fleet->view_epochs_.Register();
}

CotsFleet::ThreadHandle::~ThreadHandle() {
  if (view_participant_ != nullptr) {
    fleet_->view_epochs_.Unregister(view_participant_);
  }
}

bool CotsFleet::ThreadHandle::Offer(ElementId e, uint64_t weight) {
  InflightScope inflight(&fleet_->inflight_offers_);
  if (fleet_->state_.load(std::memory_order_seq_cst) !=
      EngineState::kRunning) {
    return false;
  }
  COTS_FAILPOINT("fleet.dispatch_shard");
  const bool counted = shards_[fleet_->ShardOf(e)]->Offer(e, weight);
  // The fleet handshake was won, so the shard is still Running (Stop()
  // cannot pass the inflight wait until this scope exits).
  assert(counted);
  fleet_->view_.MaybeAutoRefresh(view_participant_, weight);
  return counted;
}

OfferOutcome CotsFleet::ThreadHandle::OfferBatchBounded(
    const ElementId* elements, size_t count) {
  if (count == 0) return OfferOutcome::kAccepted;
  COTS_TRACE_SPAN(span, "fleet.offer_batch");
  span.SetArg(count);
  InflightScope inflight(&fleet_->inflight_offers_);
  if (fleet_->state_.load(std::memory_order_seq_cst) !=
      EngineState::kRunning) {
    span.Cancel();
    return OfferOutcome::kRefused;
  }
  if (shards_.size() == 1) {
    COTS_FAILPOINT("fleet.dispatch_shard");
    const OfferOutcome outcome = shards_[0]->OfferBatchBounded(elements, count);
    assert(outcome != OfferOutcome::kRefused);
    fleet_->view_.MaybeAutoRefresh(view_participant_, count);
    return outcome;
  }
  // One pass partitions the batch while keeping per-shard arrival order;
  // the buffers are cleared on entry (not exit) so nothing leaks across
  // calls even if a dispatch asserts out mid-way in a debug build.
  for (std::vector<ElementId>& r : route_) r.clear();
  for (size_t i = 0; i < count; ++i) {
    route_[fleet_->ShardOf(elements[i])].push_back(elements[i]);
  }
  uint64_t touched = 0;
  bool overloaded = false;
  for (size_t s = 0; s < route_.size(); ++s) {
    if (route_[s].empty()) continue;
    ++touched;
    // Perturbation point between per-shard dispatches: a batch that is
    // half-landed across shards is exactly the state the drain protocol
    // must wait out.
    COTS_FAILPOINT("fleet.dispatch_shard");
    const OfferOutcome outcome =
        shards_[s]->OfferBatchBounded(route_[s].data(), route_[s].size());
    assert(outcome != OfferOutcome::kRefused);  // see Offer
    if (outcome == OfferOutcome::kOverloaded) overloaded = true;
  }
  COTS_HISTOGRAM_RECORD("fleet.batch_shards_touched", touched);
  fleet_->view_.MaybeAutoRefresh(view_participant_, count);
  // One slow shard makes the whole fleet batch late: report it so the
  // caller can shed before the backlog compounds.
  return overloaded ? OfferOutcome::kOverloaded : OfferOutcome::kAccepted;
}

std::optional<Counter> CotsFleet::ThreadHandle::Lookup(ElementId e) const {
  return shards_[fleet_->ShardOf(e)]->Lookup(e);
}

std::vector<Counter> CotsFleet::ThreadHandle::CountersDescending() const {
  return fleet_->CountersDescending();
}

uint64_t CotsFleet::ThreadHandle::stream_length() const {
  return fleet_->stream_length();
}

size_t CotsFleet::ThreadHandle::num_counters() const {
  return fleet_->num_counters();
}

const PublishedView* CotsFleet::ThreadHandle::AcquireQueryView() const {
  return fleet_->view_.Acquire(view_participant_);
}

void CotsFleet::ThreadHandle::ReleaseQueryView() const {
  fleet_->view_.Release(view_participant_);
}

CounterSet CotsFleet::GlobalView() const {
  std::vector<CounterSet> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) parts.push_back(shard->SharedSnapshot());
  return MergeDisjoint(parts, options_.merge_capacity);
}

bool CotsFleet::Shed(const ElementId* elements, size_t count) {
  if (count == 0) return true;
  InflightScope inflight(&inflight_offers_);
  if (state_.load(std::memory_order_seq_cst) != EngineState::kRunning) {
    return false;
  }
  // Route each shed occurrence to the shard an offer would have landed on:
  // the disjoint-merge bound composition relies on every key's shed weight
  // widening its HOME shard's bounds (DESIGN.md §13).
  for (size_t i = 0; i < count; ++i) {
    shards_[ShardOf(elements[i])]->AbsorbShed(1);
  }
  COTS_TRACE_INSTANT_ARG("overload.shed", count);
  COTS_GAUGE_SET("overload.shed_weight", shed_weight());
  return true;
}

uint64_t CotsFleet::shed_weight() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->shed_weight();
  return total;
}

uint64_t CotsFleet::deadline_misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->deadline_misses();
  return total;
}

uint64_t CotsFleet::MinFreq() const {
  uint64_t bound = 0;
  for (const auto& shard : shards_) {
    const uint64_t m = shard->MinFreq();
    if (m > bound) bound = m;
  }
  return bound;
}

std::optional<Counter> CotsFleet::Lookup(ElementId e) const {
  return shards_[ShardOf(e)]->Lookup(e);
}

std::vector<Counter> CotsFleet::CountersDescending() const {
  return GlobalView().CountersDescending();
}

uint64_t CotsFleet::stream_length() const {
  // O(shards) atomic fold for callers that want the live figure. Point
  // queries served from the published view never pay it: the view caches
  // N, summed from the shard snapshots at refresh time.
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->stream_length();
  return n;
}

size_t CotsFleet::num_counters() const {
  size_t monitored = 0;
  for (const auto& shard : shards_) monitored += shard->num_counters();
  return monitored;
}

const PublishedView* CotsFleet::AcquireQueryView() const {
  return view_.AcquireShared();
}

void CotsFleet::ReleaseQueryView() const { view_.ReleaseShared(); }

void CotsFleet::RefreshQueryView() { view_.Refresh(); }

}  // namespace cots
