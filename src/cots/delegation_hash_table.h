// Copyright (c) the CoTS reproduction authors.
//
// The thread-safe cache-conscious chained hash table with request
// delegation (paper Section 5.2.1, Figure 9, Algorithm 2). This is the
// Search Structure of the CoTS framework and the component that enforces
// Invariant 5.1: at most one thread per element is ever inside the Stream
// Summary.
//
// Layout. Buckets resolve collisions by separate chaining, but chain nodes
// are grouped into *blocks* sized to a multiple of the cache line (Figure
// 9), so a lookup walks cache lines, not pointers. Readers are lock-free;
// a per-bucket spinlock serializes only inserts into the same bucket —
// "the likelihood of two writers mapping to the same hash bucket is very
// rare" with a decent hash.
//
// Delegation protocol. Each entry holds an atomic state word:
//
//      bit 63: DEAD   (tombstone — entry evicted, ignore)
//      bit 62: FREE   (slot unused / recycled, claimable by inserters)
//      else:   pending-request count
//
//   Delegate(e)    = fetch_add(state, 1). Old value 0 -> this thread OWNS e
//                    and crosses the boundary; otherwise the occurrence is
//                    logged and the thread moves on (Algorithm 2).
//   Relinquish(e)  = CAS(state, 1, 0); on failure exchange(state, 1) and
//                    carry (old - 1) back across the boundary as one bulk
//                    increment (Section 5.2.1, "Relinquishing an element").
//   TryRemove(e)   = CAS(state, 0, DEAD): succeeds only for a quiescent
//                    element — the non-blocking victim eviction the
//                    Overwrite algorithm needs (Algorithm 6).
//
// Reclamation. A DEAD slot is retired through epoch-based reclamation; its
// deleter merely flips the state to FREE. Because the flip happens only
// after a full grace period, a reader that validated a slot as live inside
// its epoch guard can safely fetch_add it: the slot cannot have been
// recycled under its feet, at worst it just died (the fetch_add's prior
// value then carries DEAD and the reader retries its lookup). Slots are
// recycled in place, so memory use is bounded by live entries plus the
// churn of at most two epochs.

#ifndef COTS_COTS_DELEGATION_HASH_TABLE_H_
#define COTS_COTS_DELEGATION_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "stream/stream.h"
#include "util/ebr.h"
#include "util/macros.h"
#include "util/spinlock.h"
#include "util/status.h"

namespace cots {

struct SummaryNode;  // defined by the Concurrent Stream Summary

struct DelegationHashTableOptions {
  /// Number of hash buckets; rounded up to a power of two. Should be a few
  /// multiples of the monitored-counter capacity so chains stay short and
  /// the table never needs to resize (Section 5.2.1).
  size_t buckets = 1024;
  /// Entries per chain block. 2 puts one block exactly in a 64-byte line
  /// (2 x 28-byte entries + next pointer, padded).
  size_t block_entries = 2;

  Status Validate() const;
};

class DelegationHashTable {
 public:
  struct Entry {
    static constexpr uint64_t kDead = uint64_t{1} << 63;
    static constexpr uint64_t kFree = uint64_t{1} << 62;

    std::atomic<uint64_t> state{kFree};
    ElementId key = 0;
    std::atomic<SummaryNode*> node{nullptr};
  };

  struct DelegateResult {
    Entry* entry = nullptr;
    /// True -> the caller owns the element and must cross the boundary.
    bool owner = false;
    /// True -> the entry was created by this call (element not monitored).
    bool newly_inserted = false;
  };

  DelegationHashTable(const DelegationHashTableOptions& options,
                      EpochManager* epochs);
  ~DelegationHashTable();

  COTS_DISALLOW_COPY_AND_ASSIGN(DelegationHashTable);

  /// Algorithm 2. Logs one occurrence of e, inserting an entry if needed.
  /// Caller must be inside an epoch guard.
  DelegateResult Delegate(ElementId e);

  /// Releases ownership after processing. `token` is the share of the
  /// state word this operation holds (1 unless a weighted offer seized
  /// ownership with a lump). Returns 0 when fully released, otherwise the
  /// number of occurrences logged meanwhile — the caller re-crosses the
  /// boundary with that bulk increment, still the owner, now with token 1.
  uint64_t Relinquish(Entry* entry, uint64_t token = 1);

  /// Non-blocking eviction for Overwrite: succeeds only when nobody is
  /// processing or has logged requests for the entry's element. On success
  /// the entry is retired; the caller must be inside an epoch guard and the
  /// participant is used to retire the slot.
  bool TryRemove(Entry* entry, EpochParticipant* participant);

  /// Lock-free point lookup (inside an epoch guard). Returns the live
  /// entry or nullptr.
  Entry* Find(ElementId e) const;

  /// Visits every live entry (inside an epoch guard); used by tests and
  /// the destructor-time audit, not by the hot path.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const BucketHead& bucket : buckets_) {
      for (Block* b = bucket.head.load(std::memory_order_acquire);
           b != nullptr; b = b->next.load(std::memory_order_acquire)) {
        for (size_t i = 0; i < block_entries_; ++i) {
          Entry& entry = b->slots()[i];
          const uint64_t s = entry.state.load(std::memory_order_acquire);
          if ((s & (Entry::kFree | Entry::kDead)) == 0) fn(entry);
        }
      }
    }
  }

  size_t num_buckets() const { return buckets_.size(); }

 private:
  // A cache-line-aligned group of chain entries (Figure 9). The entries are
  // laid out immediately after the 8-byte header in one 64-byte-aligned
  // allocation, so scanning a chain touches consecutive cache lines instead
  // of chasing per-entry pointers.
  struct Block {
    std::atomic<Block*> next{nullptr};

    Entry* slots() { return reinterpret_cast<Entry*>(this + 1); }
    const Entry* slots() const {
      return reinterpret_cast<const Entry*>(this + 1);
    }

    static Block* New(size_t entries);
    static void Delete(Block* block, size_t entries);
  };

  struct COTS_CACHE_ALIGNED BucketHead {
    std::atomic<Block*> head{nullptr};
    SpinLock insert_mu;
  };

  BucketHead& BucketFor(ElementId e) const {
    // Finalizer-strength mix so adversarial keys still spread.
    uint64_t h = e;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return buckets_[h & mask_];
  }

  // Claims a slot for `e` under the bucket's insert lock, reusing a FREE
  // slot or prepending a block; sets *claimed_fresh. A freshly claimed
  // entry starts with state == 1 (the inserter owns one logged occurrence).
  // Returns an existing live entry instead when another inserter won.
  Entry* InsertLocked(BucketHead& bucket, ElementId e, bool* claimed_fresh);

  size_t block_entries_;
  uint64_t mask_;
  mutable std::vector<BucketHead> buckets_;
  EpochManager* epochs_;
};

}  // namespace cots

#endif  // COTS_COTS_DELEGATION_HASH_TABLE_H_
