// perfbench_runner: runs one workload of the repo benchmark and prints its
// metrics. run.py builds this and calls it; see README.md.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --server-bin PATH [--out-dir DIR] [--commit SHA]
//
// The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. The exit code is 1 when the
// checker found a violation, 2 on bad arguments.

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

// Per-layer rows, as declared in BENCHMARK.json (run.py checks the two
// agree). A workload that does not exercise a layer reports 0 for it
// (README.md lists which rows apply where).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"summary.seq_eps", "1/s"},
    {"summary.max_shard_ns_per_elem", "ns"},
    {"fleet.offer_ns_per_elem", "ns"},
    {"fleet.route_ns_per_elem", "ns"},
    {"fleet.shard_skew", "ratio"},
    {"fleet.overloaded_ratio", "ratio"},
    {"fleet.stop_ms", "ms"},
    {"fleet.refresh_view_p50_us", "us"},
    {"fleet.refresh_view_p99_us", "us"},
    {"fleet.refresh_view_quiescent_us", "us"},
    {"fleet.speedup_vs_seq", "ratio"},
    {"merge.global_view_ms", "ms"},
    {"query.point_quiescent_ns", "ns"},
    {"query.topk_quiescent_us", "us"},
    {"query.view_publishes_per_s", "1/s"},
    {"engine.offer_ns_per_elem", "ns"},
    {"engine.coalesce_ratio", "ratio"},
    {"engine.ring_fallbacks", "count"},
    {"engine.overwrite_parked", "count"},
    {"engine.delegations_per_elem", "ratio"},
    {"ebr.forced_advance_attempts_per_m", "1/M"},
    {"ebr.forced_advance_success_ratio", "ratio"},
    {"server.ingest_eps", "1/s"},
    {"server.result_lag_p50_ms", "ms"},
    {"server.result_lag_p99_ms", "ms"},
    {"server.write_blocked_ratio", "ratio"},
    {"server.write_max_ms", "ms"},
    {"server.backlog_max_elems", "count"},
    {"server.stats_rtt_p50_us", "us"},
    {"server.stats_rtt_p99_us", "us"},
    {"server.busy_replies", "count"},
    {"admission.transitions", "count"},
    {"server.overloaded_batches", "count"},
    {"trace.ingest_eps", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "NAME --seed N --seconds S --trace 0|1 --server-bin PATH "
               "[--out-dir DIR] [--commit SHA]\n",
               why);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      o.push_back(' ');
      continue;
    }
    o.push_back(c);
  }
  return o;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
      << Num(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  o << "}";
  return o.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  RunConfig cfg;
  std::string workload;
  std::string commit = "unknown";
  cfg.out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--server-bin") {
      cfg.server_bin = v;
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  cfg.spec = FindWorkload(workload);
  if (cfg.spec == nullptr) return Usage("unknown workload");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  if (cfg.trace && cfg.spec->server_layer &&
      access(cfg.server_bin.c_str(), X_OK) != 0) {
    return Usage("--server-bin is not an executable");
  }
  ::mkdir(cfg.out_dir.c_str(), 0755);
  CalibrateTicks();

  const WorkloadSpec& w = *cfg.spec;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::fflush(stdout);
  RunResult r = RunInProcess(cfg);

  // Per-layer rows the workload does not exercise read 0.
  if (cfg.trace) {
    std::string zeroed;
    for (const auto& [name, unit] : kPerLayer) {
      if (r.per_layer.count(name) != 0) continue;
      bool absent = false;
      for (const std::string& a : r.absent) absent = absent || a == name;
      if (absent) continue;
      r.per_layer[name] = Metric{0, unit};
      zeroed += std::string(zeroed.empty() ? "" : ", ") + name;
    }
    if (!zeroed.empty()) {
      r.notes.push_back(std::string(w.name) + " does not exercise: " + zeroed);
    }
  }

  // Provenance.
  const unsigned nproc = std::thread::hardware_concurrency();
  std::ostringstream prov;
  prov << "{\"workload\": \"" << w.name << "\", \"seed\": " << cfg.seed
       << ", \"seconds\": " << Num(cfg.seconds)
       << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"nproc\": " << nproc
       << ", \"cpu_model\": \"" << JsonEscape(CpuModel()) << "\""
       << ", \"l2_cache\": \""
       << JsonEscape(ReadFirstLine(
              "/sys/devices/system/cpu/cpu0/cache/index2/size"))
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
       << ", \"cots_metrics\": " << PERFBENCH_COTS_METRICS
       << ", \"cots_trace\": " << PERFBENCH_COTS_TRACE
       << ", \"cots_failpoints\": " << PERFBENCH_COTS_FAILPOINTS
       << ", \"commit\": \"" << JsonEscape(commit) << "\""
       << ", \"threads\": " << r.threads_used
       << ", \"oversubscribed\": "
       << (static_cast<unsigned>(r.threads_used) > nproc ? "true" : "false")
       << ", \"params\": {\"alpha\": " << Num(w.alpha)
       << ", \"alphabet\": " << w.alphabet << ", \"capacity\": " << w.capacity
       << ", \"shards\": " << w.shards << ", \"producers\": " << w.producers
       << ", \"query_threads\": " << w.query_threads
       << ", \"view_refresh\": " << w.view_refresh;
  for (const auto& [k, v] : r.params) {
    prov << ", \"" << k << "\": \"" << v << "\"";
  }
  prov << "}}";
  std::printf("provenance %s\n", prov.str().c_str());
  if (static_cast<unsigned>(r.threads_used) > nproc) {
    std::printf("WARNING: %d busy threads on %u hardware threads\n",
                r.threads_used, nproc);
  }

  auto print_metrics = [](const char* title,
                          const std::map<std::string, Metric>& m) {
    std::printf("%s\n", title);
    for (const auto& [name, metric] : m) {
      std::printf("  %-34s %16.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  };
  print_metrics("end-to-end:", r.end_to_end);
  if (cfg.trace) print_metrics("per-layer:", r.per_layer);
  for (const std::string& a : r.absent) {
    std::printf("  %-34s absent (metrics compiled out)\n", a.c_str());
  }
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  for (const std::string& v : r.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }

  // Full report and, for a traced run, the span trace.
  const std::string stem = cfg.out_dir + "/" + w.name + "-seed" +
                           std::to_string(cfg.seed) + "-trace" +
                           (cfg.trace ? "1" : "0");
  {
    std::ofstream f(stem + ".json");
    f << "{\"provenance\": " << prov.str()
      << ", \"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"end_to_end\": " << MetricsJson(r.end_to_end)
      << ", \"per_layer\": " << MetricsJson(r.per_layer) << ", \"absent\": [";
    for (size_t i = 0; i < r.absent.size(); ++i) {
      f << (i ? ", " : "") << "\"" << r.absent[i] << "\"";
    }
    f << "], \"notes\": [";
    for (size_t i = 0; i < r.notes.size(); ++i) {
      f << (i ? ", " : "") << "\"" << JsonEscape(r.notes[i]) << "\"";
    }
    f << "], \"violations\": [";
    for (size_t i = 0; i < r.violations.size(); ++i) {
      f << (i ? ", " : "") << "\"" << JsonEscape(r.violations[i]) << "\"";
    }
    f << "]}\n";
  }
  if (cfg.trace) {
    const std::string path = stem + ".trace.json";
    if (Tracer::Get().WriteChromeJson(path)) {
      std::printf("trace: %zu spans written to %s\n", Tracer::Get().size(),
                  path.c_str());
    }
  }

  const std::map<std::string, Metric>& final_metrics =
      cfg.trace ? r.per_layer : r.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(final_metrics).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
