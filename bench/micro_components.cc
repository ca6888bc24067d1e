// Google-benchmark micro benchmarks for the load-bearing components: zipf
// sampling, the delegation hash table's fast paths, request queue ops, EBR
// guard overhead, the sequential Stream Summary, the spinlock, the CoTS
// engine's single and batched (coalescing) offer paths, and the sketches.
// Run in Release mode; absolute numbers are machine-specific, relative
// costs are what matters (e.g. Delegate ~= a hash probe + one fetch_add).

#include <benchmark/benchmark.h>

#include <cstring>

#include "common/bench_common.h"
#include "core/count_min_sketch.h"
#include "core/count_sketch.h"
#include "core/space_saving.h"
#include "cots/cots_space_saving.h"
#include "cots/delegation_hash_table.h"
#include "cots/request.h"
#include "stream/zipf_generator.h"
#include "util/ebr.h"
#include "util/spinlock.h"

namespace cots {
namespace {

void BM_ZipfSample(benchmark::State& state) {
  ZipfOptions opt;
  opt.alphabet_size = 5'000'000;
  opt.alpha = static_cast<double>(state.range(0)) / 10.0;
  ZipfGenerator gen(opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(15)->Arg(20)->Arg(30);

void BM_SpinLockUncontended(benchmark::State& state) {
  SpinLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_EpochGuardEnterExit(benchmark::State& state) {
  EpochManager manager(8);
  EpochParticipant* p = manager.Register();
  for (auto _ : state) {
    EpochGuard guard(p);
    benchmark::DoNotOptimize(p);
  }
  manager.Unregister(p);
}
BENCHMARK(BM_EpochGuardEnterExit);

void BM_RequestQueueEnqueueDrain(benchmark::State& state) {
  RequestQueue queue;
  Request r;
  r.kind = Request::Kind::kIncrement;
  r.delta = 1;
  std::vector<Request> out;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) queue.TryEnqueue(r);
    out.clear();
    queue.DrainTo(&out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_RequestQueueEnqueueDrain);

void BM_HashDelegateRelinquish(benchmark::State& state) {
  EpochManager manager(8);
  DelegationHashTableOptions opt;
  opt.buckets = 4096;
  DelegationHashTable table(opt, &manager);
  EpochParticipant* p = manager.Register();
  ZipfOptions zopt;
  zopt.alphabet_size = 1000;
  zopt.alpha = 2.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    EpochGuard guard(p);
    auto r = table.Delegate(gen.Next());
    if (r.owner) table.Relinquish(r.entry);
  }
  state.SetItemsProcessed(state.iterations());
  manager.Unregister(p);
}
BENCHMARK(BM_HashDelegateRelinquish);

void BM_HashFindHit(benchmark::State& state) {
  EpochManager manager(8);
  DelegationHashTableOptions opt;
  opt.buckets = 4096;
  DelegationHashTable table(opt, &manager);
  EpochParticipant* p = manager.Register();
  {
    EpochGuard guard(p);
    for (ElementId e = 1; e <= 1000; ++e) {
      auto r = table.Delegate(e);
      if (r.owner) table.Relinquish(r.entry);
    }
  }
  ElementId e = 1;
  for (auto _ : state) {
    EpochGuard guard(p);
    benchmark::DoNotOptimize(table.Find(e));
    e = e % 1000 + 1;
  }
  state.SetItemsProcessed(state.iterations());
  manager.Unregister(p);
}
BENCHMARK(BM_HashFindHit);

void BM_SequentialSpaceSavingOffer(benchmark::State& state) {
  SpaceSavingOptions opt;
  opt.capacity = 1000;
  if (!opt.Validate().ok()) std::abort();
  SpaceSaving engine(opt);
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = static_cast<double>(state.range(0)) / 10.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    engine.Offer(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialSpaceSavingOffer)->Arg(15)->Arg(30);

void BM_CotsOfferSingleThread(benchmark::State& state) {
  CotsSpaceSavingOptions opt;
  opt.capacity = 1000;
  if (!opt.Validate().ok()) std::abort();
  CotsSpaceSaving engine(opt);
  auto handle = engine.RegisterThread();
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = static_cast<double>(state.range(0)) / 10.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    handle->Offer(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CotsOfferSingleThread)->Arg(15)->Arg(30);

// The batched, coalescing ingest pipeline. Args: {alpha*10, batch_size}.
// Each batch is generated with timing paused so the generator cost stays
// out of the loop; items processed counts stream elements, so rates are
// directly comparable with BM_CotsOfferSingleThread.
void BM_CotsOfferBatchPipeline(benchmark::State& state) {
  CotsSpaceSavingOptions opt;
  opt.capacity = 1000;
  if (!opt.Validate().ok()) std::abort();
  CotsSpaceSaving engine(opt);
  auto handle = engine.RegisterThread();
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = static_cast<double>(state.range(0)) / 10.0;
  ZipfGenerator gen(zopt);
  const size_t batch_size = static_cast<size_t>(state.range(1));
  std::vector<ElementId> batch(batch_size);
  for (auto _ : state) {
    state.PauseTiming();
    for (ElementId& e : batch) e = gen.Next();
    state.ResumeTiming();
    handle->OfferBatch(batch.data(), batch.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_CotsOfferBatchPipeline)
    // Batch size sweep at the headline skew.
    ->Args({15, 16})
    ->Args({15, 64})
    ->Args({15, 256})
    // Low skew, where coalescing rarely merges anything: its bookkeeping
    // cost.
    ->Args({11, 256});

void BM_CountMinOffer(benchmark::State& state) {
  CountMinSketchOptions opt;
  opt.epsilon = 1.0 / 1000.0;
  opt.delta = 0.01;
  CountMinSketch cms(opt);
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = 2.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    cms.Offer(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinOffer);

void BM_CountSketchOffer(benchmark::State& state) {
  CountSketchOptions opt;
  opt.width = 3000;
  opt.depth = 5;
  CountSketch cs(opt);
  ZipfOptions zopt;
  zopt.alphabet_size = 100'000;
  zopt.alpha = 2.0;
  ZipfGenerator gen(zopt);
  for (auto _ : state) {
    cs.Offer(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchOffer);

}  // namespace
}  // namespace cots

// Custom main instead of BENCHMARK_MAIN(): peel off --json=FILE (google
// benchmark rejects flags it does not know) and write the shared report —
// here the metrics section is the payload; timings live in benchmark's own
// console output.
int main(int argc, char** argv) {
  cots::bench::BenchConfig config;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      config.json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  cots::bench::BenchReport::Global().SetTitle(
      "Micro: component benchmarks (google-benchmark)");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  cots::bench::BenchReport::Global().WriteIfRequested(config);
  return 0;
}
