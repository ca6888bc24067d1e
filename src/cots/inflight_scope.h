// Copyright (c) the CoTS reproduction authors.
//
// Internal: the offer bracket behind Stop()'s quiescence protocol, shared
// by the engine (cots_space_saving.cc) and the fleet (cots_fleet.cc).

#ifndef COTS_COTS_INFLIGHT_SCOPE_H_
#define COTS_COTS_INFLIGHT_SCOPE_H_

#include <atomic>
#include <cstdint>

#include "util/macros.h"

namespace cots {

/// Brackets one offer for Stop()'s quiescence protocol. The entry increment
/// is seq_cst: paired with the offer's subsequent state check and Stop()'s
/// seq_cst Draining-store / inflight-load, it forms a Dekker handshake —
/// either the offer observes Draining and refuses without mutating, or
/// Stop() observes the increment and waits the offer out. The release on
/// exit pairs with Stop()'s acquire load so every effect of completed
/// offers is visible to its sweep.
class InflightScope {
 public:
  explicit InflightScope(std::atomic<uint64_t>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_seq_cst);
  }
  ~InflightScope() { counter_->fetch_sub(1, std::memory_order_release); }

  COTS_DISALLOW_COPY_AND_ASSIGN(InflightScope);

 private:
  std::atomic<uint64_t>* counter_;
};

}  // namespace cots

#endif  // COTS_COTS_INFLIGHT_SCOPE_H_
