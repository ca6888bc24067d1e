// Isolation replays of the traced run. Each replays the workload's stream
// into one layer on its own, recorded as spans from this file, so a layer's
// cost per element can be read without the layers around it.

#include <algorithm>
#include <thread>

#include "bench.h"
#include "core/flat_stream_summary.h"
#include "core/query.h"
#include "core/space_saving.h"
#include "cots/cots_fleet.h"
#include "cots/cots_space_saving.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr size_t kBatch = cots::BatchIngestOptions::kDefaultBatchDepth;

cots::CotsFleetOptions FleetOptions(const WorkloadSpec& spec) {
  cots::CotsFleetOptions opt;
  opt.num_shards = spec.shards;
  opt.engine.capacity = spec.capacity;
  opt.view_refresh_interval = spec.view_refresh;
  return opt;
}

// `producers` threads each take a handle from `register_thread` and offer
// their contiguous slice of `keys` in default-depth batches, one span per
// call.
template <typename Register>
void OfferFromThreads(const cots::Stream& keys, int producers,
                      const char* span_name, uint32_t parent,
                      Register register_thread) {
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto h = register_thread();
      const size_t n = keys.size();
      const size_t begin =
          n * static_cast<size_t>(p) / static_cast<size_t>(producers);
      const size_t end =
          n * static_cast<size_t>(p + 1) / static_cast<size_t>(producers);
      for (size_t off = begin; off < end; off += kBatch) {
        const size_t len = std::min(kBatch, end - off);
        Span s(span_name, parent, len);
        h->OfferBatchBounded(keys.data() + off, len);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

void RunIsolationReplays(const WorkloadSpec& spec, const cots::Stream& keys,
                         int producers, RunResult* out) {
  Tracer& tracer = Tracer::Get();
  Span root("isolation_replays");
  const double n = static_cast<double>(keys.size());
  const cots::CotsFleetOptions fleet_opt = FleetOptions(spec);
  uint64_t sink = 0;

  // cots.fleet routing: ShardOf over the stream.
  std::vector<cots::Stream> per_shard(spec.shards);
  {
    cots::CotsFleet router(fleet_opt);
    {
      Span s("fleet.route", root.id(), keys.size());
      for (cots::ElementId e : keys) sink += router.ShardOf(e);
    }
    for (cots::ElementId e : keys) per_shard[router.ShardOf(e)].push_back(e);
  }
  out->Layer("fleet.route_ns_per_elem",
             tracer.SumNs("fleet.route", root.id()) / n, "ns");

  // core.summary, sequential baseline: one flat Space Saving holding the
  // fleet's whole counter budget, fed the whole stream by one thread.
  {
    cots::SpaceSavingOptions o;
    o.capacity = spec.capacity * spec.shards;
    o.layout = cots::SummaryLayout::kFlat;
    cots::SpaceSaving seq(o);
    Span s("summary.seq_replay", root.id(), keys.size());
    for (cots::ElementId e : keys) seq.Offer(e);
    sink += seq.stream_length();
  }
  out->Layer("summary.seq_eps",
             n / (tracer.SumNs("summary.seq_replay", root.id()) / 1e9),
             "1/s");

  // core.summary per shard: each shard's sub-stream into its own summary;
  // the slowest is an owner-computes fleet's critical path.
  double max_shard_ns = 0;
  for (size_t i = 0; i < per_shard.size(); ++i) {
    cots::FlatStreamSummary shard(spec.capacity);
    {
      Span s("summary.shard_replay", root.id(), i);
      for (cots::ElementId e : per_shard[i]) shard.Offer(e);
    }
    sink += shard.stream_length();
  }
  for (double d : tracer.DurationsNs("summary.shard_replay", root.id())) {
    max_shard_ns = std::max(max_shard_ns, d);
  }
  out->Layer("summary.max_shard_ns_per_elem", max_shard_ns / n, "ns");

  // cots.engine: one CotsSpaceSaving configured like a shard, fed the whole
  // stream by the workload's producers.
  {
    cots::CotsSpaceSaving engine(fleet_opt.engine);
    Span s("engine.replay", root.id());
    OfferFromThreads(keys, producers, "engine.offer_batch", s.id(),
                     [&] { return engine.RegisterThread(); });
    engine.Stop();
    sink += engine.stream_length();
  }
  out->Layer("engine.offer_ns_per_elem",
             tracer.SumNs("engine.offer_batch", root.id()) / n, "ns");
  out->params["replay_sink"] = std::to_string(sink % 10);
}

void MeasureQuiescentQueries(cots::CotsFleet* fleet, const cots::Stream& keys,
                             uint32_t parent, RunResult* out) {
  Tracer& tracer = Tracer::Get();
  Span root("quiescent_queries", parent);
  for (int i = 0; i < 5; ++i) {
    Span s("fleet.refresh_view_quiescent", root.id());
    fleet->RefreshQueryView();
  }
  std::vector<double> refresh =
      tracer.DurationsNs("fleet.refresh_view_quiescent", root.id());
  std::sort(refresh.begin(), refresh.end());
  out->Layer("fleet.refresh_view_quiescent_us",
             refresh[refresh.size() / 2] / 1e3, "us");

  auto h = fleet->RegisterThread();
  cots::QueryEngine q(h.get());
  cots::Xoshiro256 rng(keys.size());
  constexpr int kPairs = 200000;
  constexpr int kTopKs = 2000;
  uint64_t sink = 0;
  {
    Span s("query.point_quiescent", root.id(), kPairs);
    for (int i = 0; i < kPairs; ++i) {
      const cots::ElementId e = keys[rng.Next() % keys.size()];
      sink += static_cast<uint64_t>(q.IsElementFrequent(e, kPhi)) +
              static_cast<uint64_t>(q.IsElementInTopK(e, kTopK));
    }
  }
  {
    Span s("query.topk_quiescent", root.id(), kTopKs);
    for (int i = 0; i < kTopKs; ++i) sink += q.TopK(kTopK).size();
  }
  out->Layer("query.point_quiescent_ns",
             tracer.SumNs("query.point_quiescent", root.id()) / kPairs, "ns");
  out->Layer("query.topk_quiescent_us",
             tracer.SumNs("query.topk_quiescent", root.id()) / kTopKs / 1e3,
             "us");
  out->params["quiescent_sink"] = std::to_string(sink % 10);
}

}  // namespace perfbench
