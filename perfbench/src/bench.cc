#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PERFBENCH_HAVE_TSC 1
#else
#define PERFBENCH_HAVE_TSC 0
#endif

#include "stream/zipf_generator.h"
#include "util/metrics.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Workload table.

namespace {

// Each workload keeps 3 threads busy, one fewer than the 4 cores of the
// reference box: with 4, anything else the host runs preempts a producer,
// the others queue behind it on the hot keys, and runs stop repeating
// (README.md, Workloads).
const WorkloadSpec kWorkloads[] = {
    // name        alpha alphabet     cap   shards prod q refresh round  server
    {"fleet-hot", 2.0, 1'000'000, 1000, 4, 3, 0, 0, 4'000'000, false},
    {"query-mixed", 1.5, 1'000'000, 1000, 4, 2, 1, 8192, 3'000'000, true},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Clock.

namespace {

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point kProcessStart = SteadyClock::now();
double g_ns_per_tick = 1.0;

}  // namespace

uint64_t Ticks() {
#if PERFBENCH_HAVE_TSC
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - kProcessStart)
          .count());
#endif
}

double TicksToNs(double ticks) { return ticks * g_ns_per_tick; }

void CalibrateTicks() {
#if PERFBENCH_HAVE_TSC
  const auto t0 = SteadyClock::now();
  const uint64_t c0 = Ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t1 = SteadyClock::now();
  const uint64_t c1 = Ticks();
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  g_ns_per_tick = ns / static_cast<double>(c1 - c0);
#endif
}

double NowSeconds() {
  return std::chrono::duration<double>(SteadyClock::now() - kProcessStart)
      .count();
}

void CpuRelax() {
#if PERFBENCH_HAVE_TSC
  _mm_pause();
#endif
}

// ---------------------------------------------------------------------------
// Histogram.

size_t Hist::Index(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int msb = 63 - __builtin_clzll(v);  // >= 6
  const int shift = msb - 6;
  const uint64_t sub = (v >> shift) & (kSub - 1);
  return static_cast<size_t>(kSub + (shift * kSub) + static_cast<int>(sub));
}

double Hist::Lower(size_t index) {
  if (index < kSub) return static_cast<double>(index);
  const size_t shift = (index - kSub) / kSub;
  const size_t sub = (index - kSub) % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(shift));
}

double Hist::Width(size_t index) {
  if (index < kSub) return 1.0;
  return std::ldexp(1.0, static_cast<int>((index - kSub) / kSub));
}

void Hist::Add(uint64_t v) {
  const size_t i = Index(v);
  if (i >= buckets_.size()) buckets_.resize(i + 1, 0);
  ++buckets_[i];
  ++count_;
}

void Hist::Merge(const Hist& o) {
  if (o.buckets_.size() > buckets_.size()) buckets_.resize(o.buckets_.size());
  for (size_t i = 0; i < o.buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double Hist::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_);
  double seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const double n = static_cast<double>(buckets_[i]);
    if (n == 0) continue;
    if (seen + n >= rank) {
      // Spread the bucket's samples evenly across its width.
      const double frac = std::clamp((rank - seen) / n, 0.0, 1.0);
      return Lower(i) + frac * Width(i);
    }
    seen += n;
  }
  return Lower(buckets_.size() - 1) + Width(buckets_.size() - 1);
}

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - lo;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

// ---------------------------------------------------------------------------
// Tracer.

namespace {
thread_local uint32_t t_current_span = 0;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // outlives every worker thread
  return *tracer;
}

Tracer::ThreadBuf* Tracer::Local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    buf = bufs_.back().get();
    buf->tid = static_cast<uint32_t>(bufs_.size());
    buf->spans.reserve(1 << 16);
  }
  return buf;
}

void Tracer::Record(const SpanRecord& r) {
  ThreadBuf* buf = Local();
  SpanRecord copy = r;
  copy.tid = buf->tid;
  buf->spans.push_back(copy);
}

std::vector<const SpanRecord*> Tracer::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const SpanRecord*> out;
  for (const auto& b : bufs_) {
    for (const SpanRecord& r : b->spans) out.push_back(&r);
  }
  return out;
}

size_t Tracer::size() const { return All().size(); }

bool Tracer::IsUnder(const SpanRecord& r, uint32_t ancestor) const {
  if (ancestor == 0) return true;
  uint32_t p = r.id;
  while (p != 0) {
    if (p == ancestor) return true;
    auto it = parent_of_.find(p);
    if (it == parent_of_.end()) return false;
    p = it->second;
  }
  return false;
}

std::vector<const SpanRecord*> Tracer::Find(const std::string& name,
                                            uint32_t ancestor) const {
  const std::vector<const SpanRecord*> all = All();
  if (ancestor != 0) {
    parent_of_.clear();
    for (const SpanRecord* r : all) parent_of_[r->id] = r->parent;
  }
  std::vector<const SpanRecord*> out;
  for (const SpanRecord* r : all) {
    if (name == r->name && IsUnder(*r, ancestor)) out.push_back(r);
  }
  return out;
}

double Tracer::SumNs(const std::string& name, uint32_t ancestor) const {
  double ticks = 0;
  for (const SpanRecord* r : Find(name, ancestor)) {
    ticks += static_cast<double>(r->end - r->start);
  }
  return TicksToNs(ticks);
}

std::vector<double> Tracer::DurationsNs(const std::string& name,
                                        uint32_t ancestor) const {
  std::vector<double> out;
  for (const SpanRecord* r : Find(name, ancestor)) {
    out.push_back(TicksToNs(static_cast<double>(r->end - r->start)));
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<const SpanRecord*> all = All();
  uint64_t origin = ~0ull;
  for (const SpanRecord* r : all) origin = std::min(origin, r->start);
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRecord* r : all) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"arg\":%llu}}",
                 first ? "" : ",", r->name, r->tid,
                 TicksToNs(static_cast<double>(r->start - origin)) / 1e3,
                 TicksToNs(static_cast<double>(r->end - r->start)) / 1e3,
                 r->id, r->parent, static_cast<unsigned long long>(r->arg));
    first = false;
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint32_t parent, uint64_t arg)
    : name_(name), arg_(arg) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  id_ = t.NextId();
  parent_ = parent == kInherit ? t_current_span : parent;
  saved_current_ = t_current_span;
  t_current_span = id_;
  start_ = Ticks();
}

Span::~Span() {
  if (id_ == 0) return;
  const uint64_t end = Ticks();
  t_current_span = saved_current_;
  Tracer::Get().Record(
      SpanRecord{name_, start_, end, id_, parent_, 0, arg_});
}

// ---------------------------------------------------------------------------
// Helpers.

cots::Stream MakeKeys(const WorkloadSpec& spec, uint64_t seed, uint64_t n) {
  cots::ZipfOptions z;
  z.alphabet_size = spec.alphabet;
  z.alpha = spec.alpha;
  z.seed = seed;
  z.permute_keys = true;
  return cots::MakeZipfStream(n, z);
}

uint64_t SelfRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

void CounterDelta::Take() {
  before.clear();
  for (const auto& [name, value] :
       cots::MetricsRegistry::Global().Snapshot().counters) {
    before[name] = value;
  }
}

bool CounterDelta::Since(const std::string& name, uint64_t* out) const {
#if PERFBENCH_COTS_METRICS
  const uint64_t now =
      cots::MetricsRegistry::Global().Snapshot().CounterValue(name);
  auto it = before.find(name);
  *out = now - (it == before.end() ? 0 : it->second);
  return true;
#else
  (void)name;
  *out = 0;
  return false;
#endif
}

}  // namespace perfbench
