// In-process workloads (fleet-hot, query-mixed): closed-loop
// producers feed a CotsFleet through OfferBatchBounded and an optional
// closed-loop query thread reads through QueryEngine on its own registered
// handle; one of them also carries the reader duty (see Reader). A run is
// a sequence of rounds; each round is one fleet's life from construction
// to the checked GlobalView(), over a stream of its own drawn from
// (seed, round).

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "bench.h"
#include "checker.h"
#include "core/published_view.h"
#include "core/query.h"
#include "cots/cots_fleet.h"
#include "stream/exact_counter.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr size_t kBatch = cots::BatchIngestOptions::kDefaultBatchDepth;
constexpr double kTickSeconds = 0.005;  // probe and RSS sampling cadence
constexpr int kRefreshDutyInverse = 4;
constexpr double kAutoRefreshReadSeconds = 0.05;
// Reads per tick when no query thread runs.
constexpr int kProbePairs = 8;
constexpr int kProbeTopKs = 2;
constexpr int kPairsPerTopK = 64;
// Length of the server layer's session in a traced run, as a share of
// --seconds.
constexpr double kServerLayerShare = 0.4;

// Persistent worker threads, reused across rounds so thread creation never
// lands inside a measured window.
class WorkerPool {
 public:
  explicit WorkerPool(int n) : remaining_(0) {
    for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { Loop(i); });
  }
  ~WorkerPool() {
    quit_.store(true);
    generation_.fetch_add(1);
    generation_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start(std::function<void(int)> job) {
    job_ = std::move(job);
    remaining_.store(static_cast<int>(threads_.size()));
    generation_.fetch_add(1);
    generation_.notify_all();
  }
  void Wait() {
    for (int r = remaining_.load(); r != 0; r = remaining_.load()) {
      remaining_.wait(r);
    }
  }

 private:
  void Loop(int index) {
    uint32_t seen = 0;
    for (;;) {
      generation_.wait(seen);
      seen = generation_.load();
      if (quit_.load()) return;
      job_(index);
      if (remaining_.fetch_sub(1) == 1) remaining_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::function<void(int)> job_;
  std::atomic<uint32_t> generation_{0};
  std::atomic<int> remaining_;
  std::atomic<bool> quit_{false};
};

struct BatchRecord {
  uint64_t start;  // ticks: batch handed to the fleet (its due time)
  uint64_t end;    // ticks: call returned
  uint64_t cum;    // producers' cumulative returned count after it
};

struct Observation {
  uint64_t at;  // ticks
  uint64_t n;   // stream_length() of the view seen
};

struct ProducerLog {
  Hist offer;  // ticks per OfferBatchBounded call
  uint64_t batches = 0;
  uint64_t overloaded = 0;
  uint64_t refused = 0;  // elements
  std::vector<BatchRecord> records;
};

struct QueryLog {
  Hist pair;  // ticks per IsElementFrequent + IsElementInTopK
  Hist topk;  // ticks per TopK(100)
  uint64_t queries = 0;
  uint64_t sink = 0;
  std::vector<Observation> seen;
};

// Everything one round measured.
struct RoundStats {
  double setup_s = 0;
  double ingest_eps = 0;
  uint64_t elements = 0;
  uint64_t refused = 0;
  uint64_t batches = 0;
  uint64_t overloaded = 0;
  uint64_t queries = 0;
  uint64_t view_publishes = 0;
  double wall_s = 0;
  double shard_skew = 0;
  uint64_t rss_added = 0;  // peak resident bytes above the round's start
  std::map<std::string, double> latency;  // end-to-end latency percentiles
  CheckReport check;
};

class InProcessRun {
 public:
  explicit InProcessRun(const RunConfig& cfg)
      : cfg_(cfg),
        spec_(*cfg.spec),
        pool_(spec_.producers + spec_.query_threads) {}

  // One fleet life over a fresh stream. `measure` rounds feed the run's
  // histograms.
  RoundStats Round(bool measure, uint32_t parent_span);

  // The last round's stream (the isolation replays reuse it).
  const cots::Stream& keys() const { return keys_; }

  // Samples behind the per-round percentiles, summed over measured rounds.
  std::map<std::string, uint64_t> samples_;

  // Receives the quiescent-query rows, measured once on the first traced
  // round's stopped fleet.
  RunResult* quiescent_out_ = nullptr;

 private:
  // The reader duty of a round: it refreshes the published view (the
  // result a reader sees) with a bounded duty cycle, records what the view
  // reports as counted, probes point and top-k queries when no query
  // thread runs, and samples resident memory. It rides on a worker thread
  // (the query thread, else producer 0) between that thread's own calls,
  // so a round never runs more threads than workers.
  struct Reader {
    cots::CotsFleet::ThreadHandle* h = nullptr;
    bool probe = false;
    QueryLog* log = nullptr;
    uint32_t span = 0;
    double next_tick = 0;
    double next_refresh = 0;
    cots::Xoshiro256 rng;  // probe keys
  };
  void MaybeRead(Reader* r);
  void Produce(cots::CotsFleet::ThreadHandle* h, uint32_t span,
               ProducerLog* log, Reader* reader);
  void Query(cots::CotsFleet::ThreadHandle* h, uint32_t span, QueryLog* log,
             uint64_t seed, Reader* reader);

  const RunConfig& cfg_;
  const WorkloadSpec& spec_;
  // Every round draws its own stream from (seed, round), so a run's
  // figures average over many key-to-shard placements of the hot keys
  // instead of resting on one.
  cots::Stream keys_;
  cots::ExactCounter truth_;
  WorkerPool pool_;
  uint64_t round_index_ = 0;
  uint64_t round_rss_peak_ = 0;

  // Round coordination.
  std::atomic<cots::CotsFleet*> fleet_{nullptr};
  std::atomic<int> registered_{0};
  std::atomic<uint64_t> register_ticks_{0};  // summed over workers
  std::atomic<bool> go_{false};
  // Producers pull batches from one cursor, so reader duty on one of them
  // shifts work to the others instead of stretching the round.
  std::atomic<size_t> next_batch_{0};
  std::atomic<uint64_t> returned_{0};
  std::atomic<int> producers_left_{0};
};

void InProcessRun::Produce(cots::CotsFleet::ThreadHandle* h, uint32_t span,
                           ProducerLog* log, Reader* reader) {
  const size_t n = keys_.size();
  log->records.reserve(n / kBatch / static_cast<size_t>(spec_.producers));
  for (;;) {
    const size_t off = next_batch_.fetch_add(1) * kBatch;
    if (off >= n) break;
    const size_t len = std::min(kBatch, n - off);
    Span s("fleet.offer_batch", span, len);
    const uint64_t t0 = Ticks();
    const cots::OfferOutcome outcome =
        h->OfferBatchBounded(keys_.data() + off, len);
    const uint64_t t1 = Ticks();
    log->offer.Add(t1 - t0);
    ++log->batches;
    if (outcome == cots::OfferOutcome::kOverloaded) ++log->overloaded;
    if (outcome == cots::OfferOutcome::kRefused) {
      log->refused += len;
    } else {
      const uint64_t cum = returned_.fetch_add(len) + len;
      log->records.push_back(BatchRecord{t0, t1, cum});
    }
    if (reader != nullptr) MaybeRead(reader);
  }
}

void InProcessRun::Query(cots::CotsFleet::ThreadHandle* h, uint32_t span,
                         QueryLog* log, uint64_t seed, Reader* reader) {
  cots::QueryEngine q(h);
  cots::Xoshiro256 rng(seed);
  uint64_t last_n = 0;
  // One span for the whole reader loop: per-query spans would outnumber
  // every other span by orders of magnitude.
  Span query_span("query.reader", span);
  while (producers_left_.load(std::memory_order_acquire) != 0) {
    for (int i = 0; i < kPairsPerTopK; ++i) {
      const cots::ElementId e = keys_[rng.Next() % keys_.size()];
      const uint64_t t0 = Ticks();
      const bool a = q.IsElementFrequent(e, kPhi);
      const bool b = q.IsElementInTopK(e, kTopK);
      const uint64_t t1 = Ticks();
      log->pair.Add(t1 - t0);
      log->sink += static_cast<uint64_t>(a) + static_cast<uint64_t>(b);
    }
    const uint64_t t0 = Ticks();
    const std::vector<cots::Counter> top = q.TopK(kTopK);
    const uint64_t t1 = Ticks();
    log->topk.Add(t1 - t0);
    log->sink += top.size();
    log->queries += 2 * kPairsPerTopK + 1;
    // What the query path reports as counted right now.
    const cots::PublishedView* v = h->AcquireQueryView();
    const uint64_t n = v != nullptr ? v->stream_length() : 0;
    h->ReleaseQueryView();
    if (n != last_n) {
      log->seen.push_back(Observation{Ticks(), n});
      last_n = n;
    }
    MaybeRead(reader);
  }
  query_span.set_arg(log->queries);
}

void InProcessRun::MaybeRead(Reader* r) {
  const double now = NowSeconds();
  if (now >= r->next_refresh) {
    {
      Span s("fleet.refresh_view", r->span);
      fleet_.load()->RefreshQueryView();
    }
    const cots::PublishedView* v = r->h->AcquireQueryView();
    const uint64_t n = v != nullptr ? v->stream_length() : 0;
    r->h->ReleaseQueryView();
    r->log->seen.push_back(Observation{Ticks(), n});
    // At most a quarter of the reader's time goes to refreshing: the next
    // refresh starts kRefreshDutyInverse refresh-durations after this one
    // began. Without auto-refresh these refreshes are the only views
    // published, so they run back to back under that cap and the lag
    // follows RefreshQueryView's cost; with auto-refresh the writers
    // publish, and the reader refreshes only every kAutoRefreshReadSeconds.
    r->next_refresh =
        now + std::max(spec_.view_refresh == 0 ? 0.0 : kAutoRefreshReadSeconds,
                       (NowSeconds() - now) * kRefreshDutyInverse);
  }
  if (now < r->next_tick) return;
  r->next_tick = now + kTickSeconds;
  if (r->probe) {
    cots::QueryEngine q(r->h);
    for (int i = 0; i < kProbePairs; ++i) {
      const cots::ElementId e = keys_[r->rng.Next() % keys_.size()];
      const uint64_t t0 = Ticks();
      const bool a = q.IsElementFrequent(e, kPhi);
      const bool b = q.IsElementInTopK(e, kTopK);
      r->log->pair.Add(Ticks() - t0);
      r->log->sink += static_cast<uint64_t>(a) + static_cast<uint64_t>(b);
    }
    for (int i = 0; i < kProbeTopKs; ++i) {
      const uint64_t t0 = Ticks();
      const size_t top = q.TopK(kTopK).size();
      r->log->topk.Add(Ticks() - t0);
      r->log->sink += top;
    }
    r->log->queries += 2 * kProbePairs + kProbeTopKs;
  }
  round_rss_peak_ = std::max(round_rss_peak_, SelfRssBytes());
}

// Lag of every batch: from its due time (the call that handed it over) to
// the first observation after it returned of a view covering the
// producers' cumulative returned count at that point. Batches no tick saw
// are covered by the round's complete result at `complete`.
void AddLags(const std::vector<ProducerLog>& producers,
             std::vector<Observation> seen, uint64_t complete, uint64_t total,
             Hist* lag) {
  seen.push_back(Observation{complete, total});
  std::sort(seen.begin(), seen.end(),
            [](const Observation& a, const Observation& b) {
              return a.at < b.at;
            });
  std::vector<uint64_t> covered(seen.size());  // running max of n
  uint64_t m = 0;
  for (size_t i = 0; i < seen.size(); ++i) {
    m = std::max(m, seen[i].n);
    covered[i] = m;
  }
  for (const ProducerLog& p : producers) {
    for (const BatchRecord& r : p.records) {
      auto it = std::lower_bound(
          seen.begin(), seen.end(), r.end,
          [](const Observation& o, uint64_t t) { return o.at < t; });
      size_t i = static_cast<size_t>(it - seen.begin());
      auto c = std::lower_bound(covered.begin() + static_cast<long>(i),
                                covered.end(), r.cum);
      i = static_cast<size_t>(c - covered.begin());
      const uint64_t at = i < seen.size() ? seen[i].at : complete;
      lag->Add(at - r.start);
    }
  }
}

RoundStats InProcessRun::Round(bool measure, uint32_t parent_span) {
  ++round_index_;
  keys_ = MakeKeys(spec_, cfg_.seed * 1000003 + round_index_,
                   spec_.round_elems);
  truth_ = cots::ExactCounter(keys_);
  Span round_span("round", parent_span, measure ? 1 : 0);
  const uint32_t span = round_span.id();
  const int producers = spec_.producers;
  const int workers = producers + spec_.query_threads;
  std::vector<ProducerLog> plogs(static_cast<size_t>(producers));
  QueryLog qlog;
  QueryLog probe;

  registered_.store(0);
  register_ticks_.store(0);
  go_.store(false);
  next_batch_.store(0);
  returned_.store(0);
  producers_left_.store(producers);
  Reader reader;
  reader.rng.Seed(cfg_.seed ^ (0x0b5e7e7ull + round_index_));
  reader.probe = spec_.query_threads == 0;
  reader.log = &probe;
  reader.span = span;
  // Workers block (futex waits, no spinning) until the fleet exists, so
  // construction never competes with them for a core. Their wake-up is the
  // benchmark's scheduling, not the program's, so setup_s counts only the
  // constructor and each worker's own RegisterThread call.
  pool_.Start([&](int w) {
    fleet_.wait(nullptr);
    cots::CotsFleet* fleet = fleet_.load();
    {
      std::unique_ptr<cots::CotsFleet::ThreadHandle> h;
      {
        Span s("fleet.register_thread", span);
        const uint64_t t0 = Ticks();
        h = fleet->RegisterThread();
        register_ticks_.fetch_add(Ticks() - t0);
      }
      // The last worker carries the reader duty: the query thread when
      // there is one, else the last producer.
      const bool reads = w == workers - 1;
      if (reads) reader.h = h.get();
      registered_.fetch_add(1);
      registered_.notify_all();
      go_.wait(false);
      if (w < producers) {
        Produce(h.get(), span, &plogs[static_cast<size_t>(w)],
                reads ? &reader : nullptr);
      } else {
        Query(h.get(), span, &qlog, cfg_.seed + round_index_ * 7919, &reader);
      }
    }  // handle released before the producer reports done
    if (w < producers) producers_left_.fetch_sub(1, std::memory_order_release);
  });

  cots::CotsFleetOptions opt;
  opt.num_shards = spec_.shards;
  opt.engine.capacity = spec_.capacity;
  opt.view_refresh_interval = spec_.view_refresh;

  RoundStats st;
  const uint64_t rss_start = SelfRssBytes();
  round_rss_peak_ = rss_start;
  uint64_t construct_ticks = 0;
  std::unique_ptr<cots::CotsFleet> fleet;
  {
    Span s("fleet.setup", span);
    {
      Span c("fleet.construct", span);
      const uint64_t t0 = Ticks();
      fleet = std::make_unique<cots::CotsFleet>(opt);
      construct_ticks = Ticks() - t0;
    }
    fleet_.store(fleet.get());
    fleet_.notify_all();
    for (int r = registered_.load(); r != workers; r = registered_.load()) {
      registered_.wait(r);
    }
  }
  const uint64_t seq0 = fleet->query_view_sequence();
  go_.store(true);
  go_.notify_all();
  pool_.Wait();
  uint64_t t_stop0 = 0;
  uint64_t t_view1 = 0;
  cots::CounterSet view;
  {
    Span s("fleet.stop", span);
    t_stop0 = Ticks();
    fleet->Stop();
  }
  {
    Span s("merge.global_view", span);
    view = fleet->GlobalView();
    t_view1 = Ticks();
  }
  round_rss_peak_ = std::max(round_rss_peak_, SelfRssBytes());
  st.rss_added = round_rss_peak_ - rss_start;
  const uint64_t publishes = fleet->query_view_sequence() - seq0;

  uint64_t first = ~0ull;
  for (const ProducerLog& p : plogs) {
    if (!p.records.empty()) first = std::min(first, p.records.front().start);
    st.refused += p.refused;
    st.batches += p.batches;
    st.overloaded += p.overloaded;
  }
  const double ingest_ns =
      TicksToNs(static_cast<double>(t_view1 - std::min(first, t_stop0)));
  st.elements = keys_.size();
  st.setup_s = TicksToNs(static_cast<double>(construct_ticks +
                                             register_ticks_.load())) /
               1e9;
  st.ingest_eps = static_cast<double>(st.elements) / (ingest_ns / 1e9);
  st.wall_s = ingest_ns / 1e9;
  st.queries = qlog.queries + probe.queries;
  st.view_publishes = publishes;

  uint64_t max_shard = 0;
  uint64_t sum_shard = 0;
  for (size_t i = 0; i < fleet->num_shards(); ++i) {
    const uint64_t n = fleet->shard(i).stream_length();
    max_shard = std::max(max_shard, n);
    sum_shard += n;
  }
  st.shard_skew =
      sum_shard == 0 ? 0
                     : static_cast<double>(max_shard) *
                           static_cast<double>(fleet->num_shards()) /
                           static_cast<double>(sum_shard);

  CheckInput in;
  in.truth = &truth_;
  in.offered = st.elements - st.refused;
  in.counted = view.stream_length();
  in.shed = view.shed_weight();
  in.reported = view.counters();
  in.min_freq = view.min_freq();
  in.capacity = spec_.capacity;
  in.topk = kTopK;
  st.check = CheckGuarantees(in);
  if (st.refused != 0) {
    ++st.check.violations;
    st.check.messages.push_back("offers refused while the fleet was running");
  }

  if (measure) {
    // Percentiles per round; the run reports their interquartile mean over
    // rounds, so one disturbed round cannot move a tail figure.
    Hist offer;
    for (const ProducerLog& p : plogs) offer.Merge(p.offer);
    Hist pair = qlog.pair;
    pair.Merge(probe.pair);
    Hist topk = qlog.topk;
    topk.Merge(probe.topk);
    std::vector<Observation> seen = std::move(qlog.seen);
    seen.insert(seen.end(), probe.seen.begin(), probe.seen.end());
    Hist lag;
    AddLags(plogs, std::move(seen), t_view1, st.elements - st.refused, &lag);
    auto ns = [](const Hist& h, double q) { return TicksToNs(h.Quantile(q)); };
    st.latency["offer_p50_us"] = ns(offer, 0.50) / 1e3;
    st.latency["offer_p99_us"] = ns(offer, 0.99) / 1e3;
    st.latency["query_p50_us"] = ns(pair, 0.50) / 1e3;
    st.latency["query_p99_us"] = ns(pair, 0.99) / 1e3;
    st.latency["topk_p99_us"] = ns(topk, 0.99) / 1e3;
    st.latency["result_lag_p50_ms"] = ns(lag, 0.50) / 1e6;
    st.latency["result_lag_p99_ms"] = ns(lag, 0.99) / 1e6;
    samples_["offer"] += offer.count();
    samples_["query"] += pair.count();
    samples_["topk"] += topk.count();
    samples_["lag"] += lag.count();
  }
  if (measure && Tracer::Get().enabled() && quiescent_out_ != nullptr) {
    MeasureQuiescentQueries(fleet.get(), keys_, span, quiescent_out_);
    quiescent_out_ = nullptr;
  }
  fleet_.store(nullptr);
  fleet.reset();
  // Hand freed memory back to the kernel, so every round's fleet starts
  // from the same allocator state and its resident growth is its own.
  malloc_trim(0);
  return st;
}

}  // namespace

RunResult RunInProcess(const RunConfig& cfg) {
  const WorkloadSpec& spec = *cfg.spec;
  RunResult out;
  out.params["elements_per_round"] = std::to_string(spec.round_elems);
  out.threads_used = spec.producers + spec.query_threads;
  InProcessRun run(cfg);

  Tracer& tracer = Tracer::Get();
  Span root("run");
  // Warm-up: one full round, checked but not measured.
  RoundStats warm = run.Round(false, root.id());
  std::vector<RoundStats> rounds;
  std::vector<RoundStats> traced_rounds;
  uint64_t violations = warm.check.violations;
  std::vector<std::string> messages = warm.check.messages;

  // Untraced rounds fill the measured window; a traced run splits it into
  // an untraced half (the reference for the tracing overhead) and a traced
  // half, whose spans feed the per-layer metrics.
  const bool traced = cfg.trace;
  tracer.Enable(false);
  CounterDelta counters;
  double t0 = NowSeconds();
  const double untraced_s = traced ? cfg.seconds / 2 : cfg.seconds;
  while (rounds.size() < 3 || NowSeconds() - t0 < untraced_s) {
    rounds.push_back(run.Round(true, root.id()));
  }
  uint32_t traced_root = 0;
  if (traced) {
    tracer.Enable(true);
    Span traced_span("traced_rounds", root.id());
    traced_root = traced_span.id();
    run.quiescent_out_ = &out;
    counters.Take();
    t0 = NowSeconds();
    while (traced_rounds.size() < 3 || NowSeconds() - t0 < cfg.seconds / 2) {
      traced_rounds.push_back(run.Round(true, traced_root));
    }
  }

  auto collect = [&](const std::vector<RoundStats>& rs,
                     std::vector<double>* eps, std::vector<double>* setup) {
    for (const RoundStats& r : rs) {
      eps->push_back(r.ingest_eps);
      setup->push_back(r.setup_s);
      violations += r.check.violations;
      for (const std::string& m : r.check.messages) {
        if (messages.size() < 8) messages.push_back(m);
      }
      out.attempted += r.elements + r.queries;
      out.failed += r.refused + r.check.violations;
    }
  };
  std::vector<double> eps;
  std::vector<double> setup;
  collect(rounds, &eps, &setup);
  std::vector<double> traced_eps;
  std::vector<double> traced_setup;
  collect(traced_rounds, &traced_eps, &traced_setup);
  double recall = 0;
  for (const RoundStats& r : rounds) recall += r.check.topk_recall;
  recall /= static_cast<double>(rounds.size());

  out.correct = violations == 0;
  out.violations = messages;
  out.params["rounds"] = std::to_string(rounds.size() + traced_rounds.size());

  const double untraced_eps = InterquartileMean(eps);
  out.E2E("ingest_eps", untraced_eps, "1/s");
  for (const auto& [name, unit] :
       {std::pair<const char*, const char*>{"offer_p50_us", "us"},
        {"offer_p99_us", "us"},
        {"query_p50_us", "us"},
        {"query_p99_us", "us"},
        {"topk_p99_us", "us"},
        {"result_lag_p50_ms", "ms"},
        {"result_lag_p99_ms", "ms"}}) {
    std::vector<double> v;
    for (const RoundStats& r : rounds) v.push_back(r.latency.at(name));
    out.E2E(name, InterquartileMean(v), unit);
  }
  out.E2E("setup_s", InterquartileMean(setup), "s");
  std::vector<double> rss;
  for (const RoundStats& r : rounds) {
    rss.push_back(static_cast<double>(r.rss_added) / (1024.0 * 1024.0));
  }
  out.E2E("system_rss_mb", InterquartileMean(rss), "MiB");
  std::string per_round;
  for (double e : eps) {
    if (!per_round.empty()) per_round.push_back(' ');
    per_round += std::to_string(static_cast<int64_t>(e));
  }
  out.params["round_ingest_eps"] = per_round;
  out.E2E("delivered_ratio",
          1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
          "ratio");
  out.E2E("topk_recall", recall, "ratio");
  for (const auto& [what, n] : run.samples_) {
    out.params[what + "_samples"] = std::to_string(n);
  }

  if (!traced) return out;

  // ---- Per-layer metrics from the traced half's spans. ----
  const double n_traced = static_cast<double>(spec.round_elems) *
                          static_cast<double>(traced_rounds.size());
  const double offer_ns = tracer.SumNs("fleet.offer_batch", traced_root);
  const double stop_ns =
      InterquartileMean(tracer.DurationsNs("fleet.stop", traced_root));
  const double merge_ns =
      InterquartileMean(tracer.DurationsNs("merge.global_view", traced_root));
  std::vector<double> refresh_ns =
      tracer.DurationsNs("fleet.refresh_view", traced_root);
  std::sort(refresh_ns.begin(), refresh_ns.end());
  auto at = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : v[std::min(v.size() - 1,
                                         static_cast<size_t>(q * v.size()))];
  };
  uint64_t batches = 0;
  uint64_t overloaded = 0;
  double skew = 0;
  double publishes = 0;
  double wall = 0;
  for (const RoundStats& r : traced_rounds) {
    batches += r.batches;
    overloaded += r.overloaded;
    skew = std::max(skew, r.shard_skew);
    publishes += static_cast<double>(r.view_publishes);
    wall += r.wall_s;
  }
  const double traced_eps_centre = InterquartileMean(traced_eps);
  out.Layer("fleet.offer_ns_per_elem", offer_ns / n_traced, "ns");
  out.Layer("fleet.shard_skew", skew, "ratio");
  out.Layer("fleet.overloaded_ratio",
            batches == 0 ? 0
                         : static_cast<double>(overloaded) /
                               static_cast<double>(batches),
            "ratio");
  out.Layer("fleet.stop_ms", stop_ns / 1e6, "ms");
  out.Layer("fleet.refresh_view_p50_us", at(refresh_ns, 0.50) / 1e3, "us");
  out.Layer("fleet.refresh_view_p99_us", at(refresh_ns, 0.99) / 1e3, "us");
  out.Layer("merge.global_view_ms", merge_ns / 1e6, "ms");
  out.Layer("query.view_publishes_per_s", publishes / wall, "1/s");
  out.Layer("trace.ingest_eps", traced_eps_centre, "1/s");
  out.Layer("trace.overhead_ratio",
            untraced_eps / traced_eps_centre - 1.0, "ratio");

  const std::pair<const char*, const char*> engine_counters[] = {
      {"engine.coalesce_ratio", "ingest.coalesce_hits"},
      {"engine.ring_fallbacks", "request_queue.fallback_allocations"},
      {"engine.overwrite_parked", "summary.overwrite_parked"},
      {"engine.delegations_per_elem", "delegation.ownership_acquired"},
      {"ebr.forced_advance_attempts_per_m", "ebr.forced_advance_attempts"},
  };
  uint64_t attempts = 0;
  uint64_t successes = 0;
  for (const auto& [metric, counter] : engine_counters) {
    uint64_t v = 0;
    if (!counters.Since(counter, &v)) {
      out.absent.push_back(metric);
      continue;
    }
    const std::string m = metric;
    if (m == "engine.ring_fallbacks" || m == "engine.overwrite_parked") {
      out.Layer(m, static_cast<double>(v), "count");
    } else if (m == "ebr.forced_advance_attempts_per_m") {
      attempts = v;
      out.Layer(m, static_cast<double>(v) / (n_traced / 1e6), "1/M");
    } else {
      out.Layer(m, static_cast<double>(v) / n_traced, "ratio");
    }
  }
  if (counters.Since("ebr.forced_advance_successes", &successes)) {
    out.Layer("ebr.forced_advance_success_ratio",
              attempts == 0 ? 0
                            : static_cast<double>(successes) /
                                  static_cast<double>(attempts),
              "ratio");
  } else {
    out.absent.push_back("ebr.forced_advance_success_ratio");
  }

  // Isolation replays (single-threaded summary, per-shard summaries,
  // routing, one engine) over the same stream.
  RunIsolationReplays(spec, run.keys(), spec.producers, &out);
  if (spec.server_layer) {
    MeasureServerLayer(cfg, cfg.seconds * kServerLayerShare, &out);
  }
  out.Layer("fleet.speedup_vs_seq",
            untraced_eps / out.per_layer["summary.seq_eps"].value, "ratio");

  // Ledger reconciliation: the layer rows on the ingest critical path
  // against the measured wall time per element.
  const double wall_ns = 1e9 / traced_eps_centre;
  const double per_elem = static_cast<double>(spec.round_elems);
  const double offer_wall = offer_ns / n_traced / spec.producers;
  const double stop_e = stop_ns / per_elem;
  const double merge_e = merge_ns / per_elem;
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "ledger %s: 1/ingest_eps = %.2f ns/elem; fleet.offer busy/producer "
      "%.2f + fleet.stop %.2f + merge.global_view %.2f = %.2f ns/elem "
      "(%.0f%% of wall); isolation per elem: route %.2f, summary max-shard "
      "%.2f, engine busy/producer %.2f",
      spec.name, wall_ns, offer_wall, stop_e, merge_e,
      offer_wall + stop_e + merge_e,
      100.0 * (offer_wall + stop_e + merge_e) / wall_ns,
      out.per_layer["fleet.route_ns_per_elem"].value,
      out.per_layer["summary.max_shard_ns_per_elem"].value,
      out.per_layer["engine.offer_ns_per_elem"].value / spec.producers);
  out.notes.push_back(line);
  return out;
}

}  // namespace perfbench
