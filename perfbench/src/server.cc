// The server layer, measured in the traced run of a workload whose spec
// sets server_layer: the built examples/ingest_server in its own process,
// configured like the workload's fleet and driven over loopback TCP by
// this process. One client thread per producer, one connection each,
// sends raw little-endian uint64 keys in batch-sized chunks (512 keys):
// first open-loop at a fixed rate while the main thread polls the stats
// endpoint, then closed-loop at saturation in bursts. After SIGTERM the
// server prints its merged top-100, which the checker holds to the
// guarantees against the exact counts of what was sent.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.h"
#include "checker.h"
#include "stream/exact_counter.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr size_t kChunk = 512;                  // keys per write
constexpr size_t kSliceKeys = size_t{1} << 21;  // keys per client, cycled
// Stats polls run back to back, so the server never idles between them
// (a wake-up from idle is a cost of the host, which varies with its load,
// not of the server) and the lag is resolved to one round trip. The round
// trips are recorded as if a client wanted one poll every kPollInterval
// (see the open loop).
constexpr double kPollInterval = 100e-6;
constexpr double kDrainPollSeconds = 0.0005;  // polls while draining
constexpr double kOpenShare = 0.6;  // of the session, open loop
constexpr double kWindowSeconds = 1.0;
constexpr double kBurstSeconds = 1.0;
// Open-loop rate: about half the closed-loop saturation rate measured on
// the 4-vCPU reference box.
constexpr double kServerOpenRate = 0.5e6;

// Blocking loopback connection whose reads and writes give up after
// `timeout_s`, so a stalled server fails the run instead of hanging it.
int ConnectLoopback(uint16_t port, double timeout_s = 30) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Two distinct free loopback ports (both held while choosing, so they
// cannot coincide).
std::pair<uint16_t, uint16_t> FreePorts() {
  uint16_t ports[2] = {0, 0};
  int fds[2] = {-1, -1};
  for (int i = 0; i < 2; ++i) {
    fds[i] = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fds[i] >= 0 &&
        ::bind(fds[i], reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fds[i], reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      ports[i] = ntohs(addr.sin_port);
    }
  }
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  return {ports[0], ports[1]};
}

// Waits until NowSeconds() reaches `t`: sleeps to kSpinSeconds before it,
// then spins. A sleeping thread on a virtual machine wakes up to a
// millisecond late, by an amount that changes with the host's load; the
// spin keeps that out of the schedule.
constexpr double kSpinSeconds = 0.0002;
void WaitUntil(double t) {
  const double sleep = t - kSpinSeconds - NowSeconds();
  if (sleep > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep));
  }
  while (NowSeconds() < t) CpuRelax();
}

bool WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    len -= static_cast<size_t>(w);
  }
  return true;
}

// One ingest_server process with its stdout captured through a pipe.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Spawn(const std::string& bin, const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      pid_ = -1;
      return false;
    }
    out_fd_ = fds[0];
    return true;
  }

  pid_t pid() const { return pid_; }

  // SIGTERM, then wait (SIGKILL after `grace_s`). Returns everything the
  // server printed and whether it exited 0.
  bool Terminate(double grace_s, std::string* out) {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const double deadline = NowSeconds() + grace_s;
    std::string text;
    char buf[8192];
    while (NowSeconds() < deadline) {  // EOF arrives when the server exits
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      const ssize_t r = ::read(out_fd_, buf, sizeof(buf));
      if (r > 0) {
        text.append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      break;
    }
    int status = 0;
    pid_t w = 0;
    while ((w = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           NowSeconds() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (w == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    if (out != nullptr) *out = text;
    return w != 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// Polls until the server accepts a connection on `port`.
bool WaitAccepting(uint16_t port, double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  while (NowSeconds() < deadline) {
    const int fd = ConnectLoopback(port);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

// One "stats" command. The response is one line; once it is in, the
// connection is reset rather than closed, so thousands of polls a second
// leave no TIME_WAIT sockets behind to slow every later connect (they
// piled up over a run, and across back-to-back runs, and the stats round
// trip grew with them).
std::string QueryStats(uint16_t port) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string body;
  if (WriteAll(fd, "stats\n", 6)) {
    char buf[16384];
    // Spin on the reply rather than block on it, so the round trip does
    // not include this thread's own wake-up.
    const double deadline = NowSeconds() + 30;
    while (body.empty() || body.back() != '\n') {
      const ssize_t r = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (r < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK) && NowSeconds() < deadline) {
        CpuRelax();
        continue;
      }
      if (r <= 0) break;
      body.append(buf, static_cast<size_t>(r));
    }
  }
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);
  return body;
}

// The number after `"key":` in a flat search of the stats document (every
// key the benchmark reads is unique in it).
std::optional<uint64_t> JsonUint(const std::string& doc,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle);
  if (at == std::string::npos) return std::nullopt;
  size_t p = at + needle.size();
  while (p < doc.size() && doc[p] == ' ') ++p;
  if (p >= doc.size() || doc[p] < '0' || doc[p] > '9') return std::nullopt;
  return std::strtoull(doc.c_str() + p, nullptr, 10);
}

uint64_t VmHwmKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

struct StatsPoint {
  double at;      // seconds, response received
  uint64_t done;  // ingested + shed
  double rtt_ns;
};

// Everything the clients and the poller share.
struct Session {
  const cots::Stream* keys = nullptr;
  uint16_t port = 0;
  uint16_t stats_port = 0;
  int clients = 0;
  std::vector<int> fds;
  std::vector<uint64_t> chunks_sent;  // per client, over the whole run
  std::atomic<uint64_t> sent{0};      // elements, all clients
  std::atomic<bool> failed_write{false};
  std::atomic<uint64_t> busy_replies{0};

  Hist offer;          // ticks per saturation-phase write
  Hist late;           // ns the open-loop generator ran behind
  uint64_t write_ticks = 0;
  std::mutex mu;       // guards the two histograms above + write_ticks
  std::vector<StatsPoint> polls;
  std::vector<StatsPoint> omitted;  // stood-for polls: at = their due time
  uint64_t polls_failed = 0;
  uint64_t backlog_max = 0;
  std::string last_stats;

  const cots::ElementId* Chunk(int c, uint64_t k) const {
    const size_t slice = keys->size() / static_cast<size_t>(clients);
    const size_t off = (k * kChunk) % slice;
    return keys->data() + static_cast<size_t>(c) * slice + off;
  }

  // One fresh connection per client. The server dispatches a connection's
  // keys in batches of 512 and flushes the remainder when the connection
  // closes, so a phase ends with Disconnect() before waiting for stats to
  // report everything counted.
  void Connect() {
    fds.clear();
    for (int c = 0; c < clients; ++c) {
      const int fd = ConnectLoopback(port);
      int one = 1;
      if (fd >= 0) {
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      if (fd < 0) failed_write.store(true);
      fds.push_back(fd);
    }
  }
  void Disconnect() {
    for (int c = 0; c < clients; ++c) {
      if (fds[static_cast<size_t>(c)] < 0) continue;
      DrainReplies(c);
      ::close(fds[static_cast<size_t>(c)]);
    }
    fds.clear();
  }

  // Writes client c's next chunk; returns the ticks the write took.
  uint64_t Send(int c) {
    const cots::ElementId* chunk =
        Chunk(c, chunks_sent[static_cast<size_t>(c)]);
    const uint64_t t0 = Ticks();
    const bool ok = WriteAll(fds[static_cast<size_t>(c)], chunk,
                             kChunk * sizeof(cots::ElementId));
    const uint64_t t1 = Ticks();
    if (!ok) {
      failed_write.store(true);
      return t1 - t0;
    }
    ++chunks_sent[static_cast<size_t>(c)];
    sent.fetch_add(kChunk);
    if (chunks_sent[static_cast<size_t>(c)] % 16 == 0) DrainReplies(c);
    return t1 - t0;
  }

  // Counts "busy" replies the server queued on this connection.
  void DrainReplies(int c) {
    char buf[512];
    for (;;) {
      const ssize_t r =
          ::recv(fds[static_cast<size_t>(c)], buf, sizeof(buf), MSG_DONTWAIT);
      if (r <= 0) return;
      for (ssize_t i = 0; i + 4 <= r; ++i) {
        if (std::memcmp(buf + i, "busy", 4) == 0) busy_replies.fetch_add(1);
      }
    }
  }

  // One stats poll that fell due at `due` (seconds); records the round
  // trip from its due time and the completion level.
  std::optional<uint64_t> Poll(double due) {
    const uint64_t sent_before = sent.load();
    std::string body;
    {
      Span s("server.stats_poll");
      body = QueryStats(stats_port);
    }
    const double at = NowSeconds();
    const auto ingested = JsonUint(body, "ingested");
    const auto shed = JsonUint(body, "shed");
    if (!ingested || !shed) {
      ++polls_failed;
      return std::nullopt;
    }
    const uint64_t done = *ingested + *shed;
    polls.push_back(StatsPoint{at, done, (at - due) * 1e9});
    if (sent_before > done) {
      backlog_max = std::max(backlog_max, sent_before - done);
    }
    last_stats = std::move(body);
    return done;
  }

  // Polls until everything sent so far is ingested or shed.
  bool WaitComplete(double timeout_s) {
    const double deadline = NowSeconds() + timeout_s;
    const uint64_t target = sent.load();
    while (NowSeconds() < deadline) {
      const auto done = Poll(NowSeconds());
      if (done && *done >= target) return true;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kDrainPollSeconds));
    }
    return false;
  }
};

}  // namespace

void MeasureServerLayer(const RunConfig& cfg, double seconds,
                        RunResult* out) {
  const WorkloadSpec& spec = *cfg.spec;
  const int clients = spec.producers;
  const cots::Stream keys = MakeKeys(
      spec, cfg.seed ^ 0x5e7e7ull, kSliceKeys * static_cast<size_t>(clients));
  Span root("server_layer");
  auto fail = [&](const std::string& why) {
    out->correct = false;
    ++out->failed;
    out->violations.push_back("server layer: " + why);
  };

  const auto [port, stats_port] = FreePorts();
  const std::vector<std::string> args = {
      "--port=" + std::to_string(port),
      "--stats-port=" + std::to_string(stats_port),
      "--shards=" + std::to_string(spec.shards),
      "--capacity=" + std::to_string(spec.capacity),
      "--view-refresh=" + std::to_string(spec.view_refresh),
      "--topk=" + std::to_string(kTopK),
      "--report-ms=0"};
  ServerProcess server;
  {
    Span s("server.setup", root.id());
    if (!server.Spawn(cfg.server_bin, args) || !WaitAccepting(port, 20)) {
      fail("ingest_server did not start: " + cfg.server_bin);
      return;
    }
  }

  Session ss;
  ss.keys = &keys;
  ss.port = port;
  ss.stats_port = stats_port;
  ss.clients = clients;
  ss.chunks_sent.assign(static_cast<size_t>(clients), 0);

  // ---- Open loop: chunk g (client g % clients) is due at g * 512 / rate.
  const double open_s = seconds * kOpenShare;
  const double gap = static_cast<double>(kChunk) / kServerOpenRate;
  const uint64_t open_chunks = static_cast<uint64_t>(open_s / gap);
  ss.Connect();
  const double open_t0 = NowSeconds() + 0.01;
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(open_s / kWindowSeconds));
  auto window_of = [&](double t) {
    const double w = (t - open_t0) / open_s * static_cast<double>(windows);
    return std::min(windows - 1, static_cast<size_t>(std::max(0.0, w)));
  };
  {
    Span s("server.open_loop", root.id());
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Hist late;
        for (uint64_t g = static_cast<uint64_t>(c); g < open_chunks;
             g += static_cast<uint64_t>(clients)) {
          const double due = open_t0 + static_cast<double>(g) * gap;
          // Waking late counts in the lag, which is timed from the due
          // time.
          WaitUntil(due);
          late.Add(static_cast<uint64_t>((NowSeconds() - due) * 1e9));
          Span w("server.write", Span::kInherit, kChunk);
          ss.Send(c);
          if (ss.failed_write.load()) return;
        }
        std::lock_guard<std::mutex> lock(ss.mu);
        ss.late.Merge(late);
      });
    }
    // A poll that takes longer than kPollInterval stands for the polls a
    // client querying every kPollInterval would have sent meanwhile: each
    // is recorded with the wait it would have seen, until the reply (the
    // coordinated-omission correction of HdrHistogram), so a stall counts
    // once per interval it lasts, not once.
    while (ss.sent.load() < open_chunks * kChunk && !ss.failed_write.load() &&
           NowSeconds() < open_t0 + open_s + 5) {
      const double sent_at = NowSeconds();
      ss.Poll(sent_at);
      const double at = NowSeconds();
      for (double due = sent_at + kPollInterval; due < at;
           due += kPollInterval) {
        ss.omitted.push_back(StatsPoint{due, 0, (at - due) * 1e9});
      }
    }
    for (std::thread& t : threads) t.join();
  }
  ss.Disconnect();
  bool complete = ss.WaitComplete(20);

  // Lag: the level (g + 1) * 512 is due with chunk g and first reported by
  // the first poll whose ingested + shed reaches it. Lag and stats round
  // trips are taken per window of the open loop, and the rows are the
  // median of the window percentiles.
  std::vector<Hist> lag(windows);  // nanoseconds
  std::vector<Hist> rtt(windows);  // nanoseconds
  {
    std::vector<StatsPoint> polls = ss.polls;
    std::sort(polls.begin(), polls.end(),
              [](const StatsPoint& a, const StatsPoint& b) {
                return a.at < b.at;
              });
    for (const std::vector<StatsPoint>* v : {&polls, &ss.omitted}) {
      for (const StatsPoint& p : *v) {
        if (p.at < open_t0 + open_s) rtt[window_of(p.at)].Add(p.rtt_ns);
      }
    }
    std::vector<uint64_t> covered(polls.size());
    uint64_t m = 0;
    for (size_t i = 0; i < polls.size(); ++i) {
      covered[i] = m = std::max(m, polls[i].done);
    }
    for (uint64_t g = 0; g < open_chunks; ++g) {
      const uint64_t level = (g + 1) * kChunk;
      auto it = std::lower_bound(covered.begin(), covered.end(), level);
      if (it == covered.end()) break;
      const double seen = polls[static_cast<size_t>(it - covered.begin())].at;
      const double due = open_t0 + static_cast<double>(g) * gap;
      lag[window_of(due)].Add(
          static_cast<uint64_t>(std::max(0.0, seen - due) * 1e9));
    }
  }
  auto median_of = [](const std::vector<Hist>& hs, double q) {
    std::vector<double> v;
    for (const Hist& h : hs) {
      if (h.count() != 0) v.push_back(h.Quantile(q));
    }
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v.size() % 2 == 1 ? v[v.size() / 2]
                             : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  };

  // ---- Saturation: closed-loop bursts, each drained to completion.
  std::vector<double> burst_eps;
  const double sat_t0 = NowSeconds();
  const double sat_s = seconds * (1 - kOpenShare);
  double write_wall = 0;
  while (complete && !ss.failed_write.load() &&
         (burst_eps.size() < 2 || NowSeconds() - sat_t0 < sat_s)) {
    Span burst("server.burst", root.id());
    const uint64_t sent0 = ss.sent.load();
    std::atomic<bool> stop{false};
    const double b0 = NowSeconds();
    ss.Connect();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Hist offer;
        uint64_t busy = 0;
        while (!stop.load(std::memory_order_relaxed) &&
               !ss.failed_write.load()) {
          Span w("server.write", burst.id(), kChunk);
          const uint64_t t = ss.Send(c);
          offer.Add(t);
          busy += t;
        }
        std::lock_guard<std::mutex> lock(ss.mu);
        ss.offer.Merge(offer);
        ss.write_ticks += busy;
      });
    }
    // No stats polls inside a burst: the server's event loop reads an
    // ingest connection until it would block, and a saturating client
    // never lets it, so the stats endpoint (and the other connections)
    // wait for the burst to end. server.write_max_ms shows that wait.
    std::this_thread::sleep_for(std::chrono::duration<double>(kBurstSeconds));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    ss.Disconnect();
    write_wall += (NowSeconds() - b0) * clients;
    complete = ss.WaitComplete(20);
    burst_eps.push_back(static_cast<double>(ss.sent.load() - sent0) /
                        (NowSeconds() - b0));
  }

  // ---- Final stats, then SIGTERM and the printed top-100.
  ss.Poll(NowSeconds());
  const std::string final_stats = ss.last_stats;
  const double rss_mb = static_cast<double>(VmHwmKb(server.pid())) / 1024.0;
  std::string printed;
  const bool clean_exit = server.Terminate(15, &printed);

  // Exact counts of everything sent, from the chunk counts.
  cots::ExactCounter truth;
  for (int c = 0; c < clients; ++c) {
    for (uint64_t k = 0; k < ss.chunks_sent[static_cast<size_t>(c)]; ++k) {
      const cots::ElementId* chunk = ss.Chunk(c, k);
      for (size_t i = 0; i < kChunk; ++i) truth.Offer(chunk[i]);
    }
  }
  CheckInput in;
  in.truth = &truth;
  in.offered = ss.sent.load();
  in.capacity = spec.capacity;
  in.prefix_only = true;
  in.topk = kTopK;
  bool parsed = false;
  {
    std::istringstream lines(printed);
    std::string line;
    unsigned long long a = 0, b = 0, c = 0, d = 0;
    while (std::getline(lines, line)) {
      if (std::sscanf(line.c_str(),
                      "ingest_server: stopped after %llu elements (%llu shed)",
                      &a, &b) == 2) {
        in.counted = a;
        in.shed = b;
        parsed = true;
      } else if (std::sscanf(line.c_str(),
                             "[top-%llu of %llu ingested, bound %llu, shed "
                             "%llu]",
                             &a, &b, &c, &d) == 4) {
        in.min_freq = c;
        in.reported.clear();
      } else if (std::sscanf(line.c_str(), " key %llu est %llu err %llu", &a,
                             &b, &c) == 3) {
        in.reported.push_back(cots::Counter{a, b, c});
      }
    }
  }
  const CheckReport check = CheckGuarantees(in);
  if (check.violations != 0) out->correct = false;
  out->failed += check.violations;
  for (const std::string& m : check.messages) {
    out->violations.push_back("server layer: " + m);
  }
  if (!parsed) fail("no final report from ingest_server");
  if (!clean_exit) fail("ingest_server did not exit cleanly after SIGTERM");
  if (!complete) fail("stats never reported ingested + shed == sent");
  if (ss.failed_write.load()) fail("a client connection failed");
  const auto stats_done = JsonUint(final_stats, "ingested");
  const auto stats_shed = JsonUint(final_stats, "shed");
  if (!stats_done || !stats_shed ||
      *stats_done + *stats_shed != ss.sent.load()) {
    fail("final stats: ingested + shed != sent");
  }
  out->attempted += ss.sent.load() + ss.polls.size() + ss.polls_failed;
  out->failed += in.shed + ss.polls_failed;

  // ---- Per-layer rows. Server-side counters come from its stats
  // document (its MetricsRegistry snapshot).
  auto counter = [&](const char* name) {
    return static_cast<double>(JsonUint(final_stats, name).value_or(0));
  };
  out->Layer("server.ingest_eps", InterquartileMean(burst_eps), "1/s");
  out->Layer("server.result_lag_p50_ms", median_of(lag, 0.50) / 1e6, "ms");
  out->Layer("server.result_lag_p99_ms", median_of(lag, 0.99) / 1e6, "ms");
  out->Layer("server.stats_rtt_p50_us", median_of(rtt, 0.50) / 1e3, "us");
  out->Layer("server.stats_rtt_p99_us", median_of(rtt, 0.99) / 1e3, "us");
  out->Layer("server.write_blocked_ratio",
             TicksToNs(static_cast<double>(ss.write_ticks)) / 1e9 / write_wall,
             "ratio");
  out->Layer("server.write_max_ms", TicksToNs(ss.offer.Quantile(1.0)) / 1e6,
             "ms");
  out->Layer("server.backlog_max_elems", static_cast<double>(ss.backlog_max),
             "count");
  out->Layer("server.busy_replies",
             static_cast<double>(ss.busy_replies.load()), "count");
  out->Layer("admission.transitions", counter("transitions"), "count");
  out->Layer("server.overloaded_batches", counter("overloaded_batches"),
             "count");

  std::string per_burst;
  for (double e : burst_eps) {
    if (!per_burst.empty()) per_burst.push_back(' ');
    per_burst += std::to_string(static_cast<int64_t>(e));
  }
  out->params["server_burst_ingest_eps"] = per_burst;
  out->params["server_open_rate_eps"] = std::to_string(kServerOpenRate);
  out->params["server_open_loop_late_p99_ms"] =
      std::to_string(ss.late.Quantile(0.99) / 1e6);
  out->params["server_stats_polls"] = std::to_string(ss.polls.size());
  out->params["server_rss_mb"] = std::to_string(rss_mb);
}

}  // namespace perfbench
