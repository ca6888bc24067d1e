// Shared pieces of the repo benchmark runner: workload table, tick clock,
// latency histograms, the in-memory span recorder behind the traced run,
// and the result record every workload fills in.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stream/stream.h"

namespace cots {
class CotsFleet;
}  // namespace cots

namespace perfbench {

// ---------------------------------------------------------------------------
// Workloads (README.md explains why each exists).

struct WorkloadSpec {
  const char* name;
  double alpha;
  uint64_t alphabet;
  size_t capacity;        // counters per shard
  size_t shards;
  int producers;          // closed-loop ingest threads (server clients)
  int query_threads;      // closed-loop point/top-k query threads
  uint64_t view_refresh;  // fleet auto-refresh interval, 0 = off
  uint64_t round_elems;   // elements per round (one fleet life)
  // The traced run also measures the server layer: examples/ingest_server
  // configured like this fleet, driven over loopback (server.cc).
  bool server_layer;
};

const WorkloadSpec* FindWorkload(const std::string& name);

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;  // path of the built ingest_server
  std::string out_dir;     // where reports and traces are written
};

// ---------------------------------------------------------------------------
// Clock. Short latencies (a query pair is ~100 ns) are read from the cycle
// counter and converted with a rate calibrated against steady_clock, so a
// sample is not rounded to the steady clock's overhead.

uint64_t Ticks();
double TicksToNs(double ticks);
void CalibrateTicks();
double NowSeconds();  // steady clock, seconds since process start
void CpuRelax();      // spin-wait hint

// Log-linear histogram over tick counts: 64 linear sub-buckets per power of
// two (relative resolution 1/64), quantiles interpolated inside a bucket.
class Hist {
 public:
  void Add(uint64_t v);
  void Merge(const Hist& o);
  uint64_t count() const { return count_; }
  double Quantile(double q) const;  // in the recorded unit

 private:
  static constexpr int kSub = 64;
  static size_t Index(uint64_t v);
  static double Lower(size_t index);
  static double Width(size_t index);
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// Mean of the middle half of `v` (all of it below four values): a robust
// centre that, unlike the median, does not jump between the modes of a
// bimodal sample. Every figure aggregated over rounds, windows, bursts or
// spawns uses it.
double InterquartileMean(std::vector<double> v);

// ---------------------------------------------------------------------------
// Span recorder for the traced run. Spans are recorded in the benchmark's
// own code around calls into the program's public API; they stay in memory
// (one vector per thread) and are written as Chrome trace-event JSON at the
// end. Disabled, a Span costs one branch.

struct SpanRecord {
  const char* name;
  uint64_t start;  // ticks
  uint64_t end;
  uint32_t id;
  uint32_t parent;  // 0 = root
  uint32_t tid;
  uint64_t arg;
};

class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const SpanRecord& r);

  // All spans named `name` (optionally under a given ancestor span).
  std::vector<const SpanRecord*> Find(const std::string& name,
                                      uint32_t ancestor = 0) const;
  double SumNs(const std::string& name, uint32_t ancestor = 0) const;
  std::vector<double> DurationsNs(const std::string& name,
                                  uint32_t ancestor = 0) const;
  size_t size() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct ThreadBuf {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
  };
  ThreadBuf* Local();
  bool IsUnder(const SpanRecord& r, uint32_t ancestor) const;
  std::vector<const SpanRecord*> All() const;

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  mutable std::map<uint32_t, uint32_t> parent_of_;  // built lazily
};

class Span {
 public:
  // parent == kInherit nests under this thread's innermost open span.
  static constexpr uint32_t kInherit = ~0u;
  explicit Span(const char* name, uint32_t parent = kInherit,
                uint64_t arg = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint32_t id() const { return id_; }
  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  const char* name_;
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  uint32_t saved_current_ = 0;
  uint64_t start_ = 0;
  uint64_t arg_ = 0;
};

// ---------------------------------------------------------------------------
// What a workload hands back to main.

struct Metric {
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> absent;  // metrics a build compiled out
  std::map<std::string, std::string> params;  // workload parameters
  int threads_used = 0;  // busy threads of load + system
  std::vector<std::string> notes;

  void E2E(const std::string& name, double v, const char* unit) {
    end_to_end[name] = Metric{v, unit};
  }
  void Layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = Metric{v, unit};
  }
};

RunResult RunInProcess(const RunConfig& cfg);

// Runs the server layer for `seconds` and adds its per-layer rows, checker
// violations and attempted/failed counts to `out`.
void MeasureServerLayer(const RunConfig& cfg, double seconds, RunResult* out);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.

// The workload's keys: zipf(alpha) over the alphabet, ranks permuted to
// scattered key values, a pure function of (spec, seed, n).
cots::Stream MakeKeys(const WorkloadSpec& spec, uint64_t seed, uint64_t n);

// Resident set size of this process, in bytes (/proc/self/statm).
uint64_t SelfRssBytes();

// Counter deltas from the library's MetricsRegistry snapshot.
struct CounterDelta {
  std::map<std::string, uint64_t> before;
  void Take();
  // Value since Take(); false when the build compiled metrics out.
  bool Since(const std::string& name, uint64_t* out) const;
};

// Query knobs shared by every reader the benchmark runs.
constexpr double kPhi = 0.001;  // IsElementFrequent threshold
constexpr size_t kTopK = 100;

// The isolation replays of the traced run (routing, single-threaded
// summary, per-shard summaries, one engine) over `keys`, recorded as spans
// and turned into per-layer metrics.
void RunIsolationReplays(const WorkloadSpec& spec, const cots::Stream& keys,
                         int producers, RunResult* out);

// Refreshes and queries a stopped fleet with nothing else running: the
// floor under the loaded query latencies.
void MeasureQuiescentQueries(cots::CotsFleet* fleet, const cots::Stream& keys,
                             uint32_t parent, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
