// The wire-level benchmark of the spanner service (see README.md beside
// this file).
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1 [--git DESC]
//   perfbench serve [--dir PATH]
//
// `run` is the load client: it spawns `serve` processes (a ShardedStore behind a
// SpannerServer, both with their default options) pinned to half of the
// allowed CPUs, pins itself to the other half, drives one workload over
// loopback TCP in closed loop, checks every answer against the oracles of
// workloads.hpp, and prints one JSON result as its last stdout line. With
// --trace 1 it then replays the same operations in-process and reports the
// per-layer metrics instead of the end-to-end ones.
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "server/cluster.hpp"
#include "server/server.hpp"
#include "slp/avl_grammar.hpp"
#include "slp/cde.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace spanners;

constexpr std::size_t kSetupRepetitions = 5;

/// The durable store's flush policy. The WAL lives in the checkout (the
/// benchmark writes nowhere else), normally on a real disk: on a 4-vCPU VM
/// with an ext4 virtual disk, fsync made commit p90 swing 0.8..2.0 ms
/// between runs of one seed. Without
/// fsync a commit still appends its record before publishing, and a
/// SIGKILL keeps the page cache, so the restart check below still sees
/// every acknowledged commit (README.md, "Flush policy").
constexpr bool kWalSync = false;
constexpr uint64_t kAuditEvery = 64;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

/// The \p p-th percentile (0-100) by linear interpolation between ranks.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::vector<double> ToUs(const std::vector<uint64_t>& ns) {
  std::vector<double> us;
  us.reserve(ns.size());
  for (uint64_t v : ns) us.push_back(static_cast<double>(v) / 1000.0);
  return us;
}

/// Reported figures are medians over up to kWindows consecutive windows of
/// the timed phase, each with at least kMinWindowSamples samples. The VM
/// the benchmark was built on has slow phases of tens of seconds (README.md,
/// "Steadiness and bounds"); a phase that covers fewer than half of a run's
/// windows then leaves its figures unmoved, where a percentile over the
/// whole run would shift with the share of the run it covered.
constexpr std::size_t kWindows = 10;
constexpr std::size_t kMinWindowSamples = 200;

/// Samples of one latency series: when each RPC completed, and its latency.
struct Samples {
  std::vector<uint64_t> end_ns;
  std::vector<uint64_t> latency_ns;

  void Add(uint64_t end, uint64_t latency) {
    end_ns.push_back(end);
    latency_ns.push_back(latency);
  }
  void Merge(const Samples& other) {
    end_ns.insert(end_ns.end(), other.end_ns.begin(), other.end_ns.end());
    latency_ns.insert(latency_ns.end(), other.latency_ns.begin(), other.latency_ns.end());
  }
  std::size_t size() const { return latency_ns.size(); }
};

/// The median over consecutive windows of equally many samples, in
/// completion order, of each window's \p p-th percentile latency in us.
double WindowedPercentile(const Samples& samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&samples](std::size_t a, std::size_t b) {
    return samples.end_ns[a] < samples.end_ns[b];
  });
  const std::size_t windows = std::clamp<std::size_t>(n / kMinWindowSamples, 1, kWindows);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> us;
    for (std::size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      us.push_back(static_cast<double>(samples.latency_ns[order[i]]) / 1000.0);
    }
    per_window.push_back(Percentile(std::move(us), p));
  }
  return Percentile(std::move(per_window), 50);
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (int cpu : cpus) out += (out.empty() ? "" : ",") + std::to_string(cpu);
  return out.empty() ? "unpinned" : out;
}

void PinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Steal and total jiffies of all CPUs so far (/proc/stat).
std::pair<uint64_t, uint64_t> StealAndTotalJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0, value = 0;
  for (int field = 1; field <= 8 && in >> value; ++field) {
    total += value;
    if (field == 8) steal = value;
  }
  return {steal, total};
}

/// Splits the CPUs this process may use into disjoint server and client
/// halves (server first). Fewer than two CPUs: nothing is pinned.
void SplitCpus(std::vector<int>* server, std::vector<int>* client) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
  }
  if (allowed.size() < 2) return;
  const std::size_t half = allowed.size() / 2;
  server->assign(allowed.begin(), allowed.begin() + half);
  client->assign(allowed.begin() + half, allowed.end());
}

// --- the server process -----------------------------------------------------

int Serve(const std::string& dir) {
  // Block the stop signals before any thread exists, so every thread
  // inherits the mask and sigwait below is the only receiver.
  sigset_t stop;
  sigemptyset(&stop);
  sigaddset(&stop, SIGTERM);
  sigaddset(&stop, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop, nullptr);

  ClusterOptions options;
  options.store.wal_sync = kWalSync;
  std::unique_ptr<ShardedStore> store;
  if (dir.empty()) {
    store = std::make_unique<ShardedStore>(options);
  } else {
    Expected<std::unique_ptr<ShardedStore>> opened = ShardedStore::Open(dir, options);
    if (!opened.ok()) Fail("serve: open " + dir + ": " + opened.error());
    store = std::move(*opened);
  }
  SpannerServer server(store.get(), ServerOptions{});
  if (Status started = server.Start(); !started.ok()) {
    Fail("serve: start: " + started.message());
  }
  std::printf("listening %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  int signal_number = 0;
  sigwait(&stop, &signal_number);
  server.Stop();
  return 0;
}

/// A spawned `serve` process. The destructor kills and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(SIGKILL); }

  /// Forks and execs this binary as `serve`, pinned to \p cpus, and waits
  /// for its "listening PORT" line.
  void Start(const std::string& dir, const std::vector<int>& cpus) {
    int fds[2];
    if (pipe(fds) != 0) Fail("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) Fail("fork failed");
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      PinTo(cpus);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      if (dir.empty()) {
        execl("/proc/self/exe", "perfbench", "serve", static_cast<char*>(nullptr));
      } else {
        execl("/proc/self/exe", "perfbench", "serve", "--dir", dir.c_str(),
              static_cast<char*>(nullptr));
      }
      _exit(127);
    }
    close(fds[1]);
    pid_ = pid;
    std::string line;
    const uint64_t deadline = NowNs() + 60'000'000'000ull;
    while (line.find('\n') == std::string::npos) {
      pollfd waiting{fds[0], POLLIN, 0};
      const uint64_t now = NowNs();
      if (now >= deadline || poll(&waiting, 1, static_cast<int>((deadline - now) / 1'000'000)) <= 0) {
        break;
      }
      char buffer[64];
      const ssize_t got = read(fds[0], buffer, sizeof(buffer));
      if (got <= 0) break;
      line.append(buffer, static_cast<std::size_t>(got));
    }
    close(fds[0]);
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "listening %u", &port) != 1 || port == 0) {
      Fail("server did not start");
    }
    port_ = static_cast<uint16_t>(port);
  }

  /// Sends \p signal and reaps the process (SIGTERM: a clean stop).
  void Kill(int signal) {
    if (pid_ <= 0) return;
    kill(pid_, signal);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  uint16_t port() const { return port_; }

  /// User + system CPU seconds of every thread so far.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string content((std::istreambuf_iterator<char>(in)), {});
    const std::size_t close_paren = content.rfind(')');
    if (close_paren == std::string::npos) return 0.0;
    std::istringstream fields(content.substr(close_paren + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMib() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Samples the server's CPU time every kCpuSampleMs while it runs, so that
/// CPU per op can be taken per window of the timed phase.
class CpuSampler {
 public:
  static constexpr int kCpuSampleMs = 100;

  explicit CpuSampler(const ServerProcess& server) : server_(server) {
    Sample();
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_.wait_for(lock, std::chrono::milliseconds(kCpuSampleMs),
                             [this] { return stopping_; })) {
        lock.unlock();
        Sample();
        lock.lock();
      }
    });
  }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;
  ~CpuSampler() { Stop(); }

  /// Ends sampling with a last sample; idempotent.
  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    stop_.notify_all();
    thread_.join();
    Sample();
  }

  /// Total server CPU seconds between the first and the last sample.
  double Total() const { return samples_.back().second - samples_.front().second; }

  /// The median over up to kWindows equal spans of samples of (server CPU
  /// us / RPCs completed in the span); \p ends holds the completion times.
  double WindowedUsPerOp(std::vector<uint64_t> ends) const {
    std::sort(ends.begin(), ends.end());
    const std::size_t spans = std::min(kWindows, samples_.size() - 1);
    std::vector<double> per_window;
    for (std::size_t w = 0; w < spans; ++w) {
      const auto& [t0, cpu0] = samples_[w * (samples_.size() - 1) / spans];
      const auto& [t1, cpu1] = samples_[(w + 1) * (samples_.size() - 1) / spans];
      const auto ops = std::upper_bound(ends.begin(), ends.end(), t1) -
                       std::upper_bound(ends.begin(), ends.end(), t0);
      if (ops > 0) per_window.push_back((cpu1 - cpu0) * 1e6 / static_cast<double>(ops));
    }
    return Percentile(std::move(per_window), 50);
  }

 private:
  void Sample() {
    const uint64_t now = NowNs();
    samples_.emplace_back(now, server_.CpuSeconds());
  }

  const ServerProcess& server_;
  std::mutex mutex_;
  std::condition_variable stop_;
  bool stopping_ = false;
  std::vector<std::pair<uint64_t, double>> samples_;
  std::thread thread_;
};

SpannerClient Connect(uint16_t port) {
  Expected<SpannerClient> client = SpannerClient::Connect("127.0.0.1", port);
  if (!client.ok()) Fail("connect: " + client.error());
  return std::move(*client);
}

// --- answer checking --------------------------------------------------------

/// The expected answer of every (pattern, document) pair a read of a
/// read-only workload can ask for, computed once per run from the corpus.
class StaticExpectations {
 public:
  explicit StaticExpectations(const Plan& plan) : plan_(&plan) {
    table_.resize(plan.patterns.size() * plan.corpus.size());
    auto need = [this](const Op& op) {
      for (uint64_t doc : op.docs) Compute(op.pattern, doc);
    };
    for (uint32_t p : plan.warm_patterns) {
      for (uint64_t doc = 1; doc <= plan.corpus.size(); ++doc) Compute(p, doc);
    }
    for (const Op& op : plan.warmup_reads) need(op);
    for (const auto& reads : plan.reads) {
      for (const Op& op : reads) need(op);
    }
  }

  const Expect& Get(uint32_t pattern, uint64_t doc) const {
    return *table_[pattern * plan_->corpus.size() + (doc - 1)];
  }

 private:
  void Compute(uint32_t pattern, uint64_t doc) {
    std::optional<Expect>& slot = table_[pattern * plan_->corpus.size() + (doc - 1)];
    if (!slot) {
      slot = ExpectFor(plan_->patterns[pattern], plan_->corpus[doc - 1], plan_->max_tuples);
    }
  }

  const Plan* plan_;
  std::vector<std::optional<Expect>> table_;
};

QueryRequest MakeRequest(const Plan& plan, const Op& op) {
  QueryRequest request;
  request.pattern = plan.patterns[op.pattern].regex;
  request.docs = op.docs;
  request.max_tuples = plan.max_tuples;
  return request;
}

// --- closed-loop connections ------------------------------------------------

struct PhaseStats {
  Samples reads;
  Samples writes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t violations = 0;  ///< pinned-snapshot audits that saw a change
  uint64_t audits = 0;
  uint64_t retries = 0;     ///< kRetry sheds the client absorbed
  std::vector<uint64_t> created;  ///< ids the ingest inserts received

  void Merge(const PhaseStats& other) {
    created.insert(created.end(), other.created.begin(), other.created.end());
    reads.Merge(other.reads);
    writes.Merge(other.writes);
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    violations += other.violations;
    audits += other.audits;
    retries += other.retries;
  }
};

/// One connection: issues \p ops in order, checking every answer; ingest ops
/// are timed as writes. With \p acked and \p reads_done (edit_requery), the
/// reader and the writer alternate: read i waits for edit
/// (i + 1) * kEditsPerRead - 1 to be acknowledged, and the writer waits for
/// read i before the next edit. Each read then sees exactly the version of
/// its place in the edit stream, and neither side queues behind the other:
/// run concurrently, the two saturated the server's cores, and a busy
/// neighbour on one core doubled every latency. Every kAuditEvery-th
/// iteration re-reads
/// the connection's first op pinned to the snapshot taken at start; its
/// answer must never change (snapshot isolation) and must be the oracle's
/// answer at the pinned versions.
void RunReader(uint16_t port, const Plan& plan, const std::vector<Op>& ops,
               const ExpectFn& expect, const std::atomic<uint64_t>* acked,
               std::atomic<uint64_t>* reads_done, PhaseStats* out) {
  SpannerClient client = Connect(port);
  Expected<SnapshotResponse> pinned = client.Snapshot();
  if (!pinned.ok()) Fail("snapshot: " + pinned.error());
  QueryRequest audit = MakeRequest(plan, ops.front());
  audit.snapshot_versions = pinned->versions;
  Expected<QueryResponse> baseline = client.Query(audit);
  if (!baseline.ok()) Fail("baseline query: " + baseline.error());
  out->mismatches += Mismatches(ops.front(), *baseline, plan.max_tuples, expect);

  std::size_t next = 0;
  for (uint64_t iteration = 1; next < ops.size(); ++iteration) {
    if (iteration % kAuditEvery == 0) {
      ++out->audits;
      ++out->attempted;
      Expected<QueryResponse> again = client.Query(audit);
      if (!again.ok()) {
        ++out->failed;
        continue;
      }
      bool same = again->results.size() == baseline->results.size();
      for (std::size_t i = 0; same && i < again->results.size(); ++i) {
        same = again->results[i].num_tuples == baseline->results[i].num_tuples &&
               again->results[i].tuples == baseline->results[i].tuples;
      }
      if (!same) ++out->violations;
      out->mismatches += Mismatches(ops.front(), *again, plan.max_tuples, expect);
      continue;
    }
    const Op& op = ops[next];
    ++next;
    if (acked != nullptr) {
      const uint64_t target = next * kEditsPerRead;
      for (uint64_t seen = acked->load(); seen < target; seen = acked->load()) {
        acked->wait(seen);
      }
    }
    if (op.ingest >= 0) {
      WriteBatch batch;
      batch.Insert(plan.ingest[static_cast<std::size_t>(op.ingest)]);
      ++out->attempted;
      const uint64_t start = NowNs();
      Expected<CommitResponse> response = client.Commit(batch);
      const uint64_t elapsed = NowNs() - start;
      if (!response.ok()) {
        ++out->failed;
        continue;
      }
      out->writes.Add(start + elapsed, elapsed);
      out->created.insert(out->created.end(), response->created.begin(),
                          response->created.end());
      continue;
    }
    const QueryRequest request = MakeRequest(plan, op);
    ++out->attempted;
    const uint64_t start = NowNs();
    Expected<QueryResponse> response = client.Query(request);
    const uint64_t elapsed = NowNs() - start;
    if (reads_done != nullptr) {
      reads_done->fetch_add(1);
      reads_done->notify_all();
    }
    if (!response.ok()) {
      ++out->failed;
      continue;
    }
    out->reads.Add(start + elapsed, elapsed);
    out->mismatches += Mismatches(op, *response, plan.max_tuples, expect);
  }
  out->retries += client.retries();
}

/// Commits \p edits, which start at index \p first of prep ++ timed edits,
/// in order; each must publish exactly the version the plan predicts. With
/// \p acked and \p reads_done, alternates with the reader (see RunReader).
void RunEdits(uint16_t port, const std::vector<EditOp>& edits, std::size_t first,
              const VersionedExpectations& expected, std::atomic<uint64_t>* acked,
              const std::atomic<uint64_t>* reads_done, PhaseStats* out) {
  SpannerClient client = Connect(port);
  for (std::size_t e = 0; e < edits.size(); ++e) {
    if (reads_done != nullptr) {
      const uint64_t target = e / kEditsPerRead;
      for (uint64_t seen = reads_done->load(); seen < target; seen = reads_done->load()) {
        reads_done->wait(seen);
      }
    }
    WriteBatch batch;
    batch.Edit(edits[e].doc, edits[e].cde);
    ++out->attempted;
    const uint64_t start = NowNs();
    Expected<CommitResponse> response = client.Commit(batch);
    const uint64_t elapsed = NowNs() - start;
    if (acked != nullptr) {
      acked->fetch_add(1);
      acked->notify_all();
    }
    if (!response.ok()) {
      ++out->failed;
      continue;
    }
    out->writes.Add(start + elapsed, elapsed);
    const std::pair<uint32_t, uint64_t> published{
        static_cast<uint32_t>(expected.ShardOf(edits[e].doc)), expected.VersionAfter(first + e)};
    if (response->shard_versions != std::vector<std::pair<uint32_t, uint64_t>>{published}) {
      ++out->mismatches;
    }
  }
  out->retries += client.retries();
}

/// Loads the corpus one document per COMMIT; ids must come back as 1..N.
void LoadCorpus(SpannerClient& client, const Plan& plan) {
  for (std::size_t d = 0; d < plan.corpus.size(); ++d) {
    WriteBatch batch;
    batch.Insert(plan.corpus[d]);
    Expected<CommitResponse> response = client.Commit(batch);
    if (!response.ok()) Fail("load: " + response.error());
    if (response->created != std::vector<ClusterDocId>{d + 1}) Fail("load: unexpected id");
  }
}

/// Queries every document with every pattern of \p patterns; returns the
/// number of wrong answers.
uint64_t QueryEverything(SpannerClient& client, const Plan& plan,
                         const std::vector<uint32_t>& patterns, const ExpectFn& expect) {
  uint64_t wrong = 0;
  for (uint32_t p : patterns) {
    Op op{p, {}};
    for (uint64_t doc = 1; doc <= plan.corpus.size(); ++doc) op.docs.push_back(doc);
    Expected<QueryResponse> response = client.Query(MakeRequest(plan, op));
    if (!response.ok()) Fail("query: " + response.error());
    wrong += Mismatches(op, *response, plan.max_tuples, expect);
  }
  return wrong;
}

// --- METRICS RPC deltas -----------------------------------------------------

/// Sample values of an OpenMetrics exposition, keyed by sample name.
std::map<std::string, double> ParseOpenMetrics(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return values;
}

std::map<std::string, double> FetchMetrics(uint16_t port) {
  SpannerClient client = Connect(port);
  Expected<std::string> text = client.Metrics();
  if (!text.ok()) Fail("metrics: " + text.error());
  return ParseOpenMetrics(*text);
}

/// Counter or histogram-sample growth between two expositions; \p name is
/// the registry name ("store.cache.hit") plus an OpenMetrics suffix.
double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, std::string name,
             const std::string& suffix) {
  std::replace(name.begin(), name.end(), '.', '_');
  const std::string key = "spanners_" + name + suffix;
  auto get = [&key](const std::map<std::string, double>& values) {
    auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

// --- the run ----------------------------------------------------------------

struct Options {
  Workload workload = Workload::kWarmRead;
  uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string git = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// FNV-1a of the plan's canonical bytes: equal stamps mean equal ops sent.
uint64_t PlanDigest(const Plan& plan) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : SerializePlan(plan)) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string FileSystemType(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x9123683Eul: return "btrfs";
    case 0x58465342ul: return "xfs";
    case 0x794c7630ul: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

/// The in-process replay of one run's operations (--trace 1): the same
/// seeded corpus, edits and reads against a ShardedStore in this process,
/// timing the call into each layer's public function.
struct LayerTimes {
  std::vector<double> snapshot_us, query_us, encode_us, decode_us, serve_us;
  std::vector<double> commit_us, compile_us, cde_apply_us;
  double response_bytes = 0;
  uint64_t reads = 0;
  uint64_t mismatches = 0;
  double open_ms = 0;
  double replay_records = 0;
  double fill_share = 0;  ///< slp.fill_ns over the timed replay / its query time
};

/// Times one QUERY's server-side work in-process: snapshot, per-document
/// evaluation, response construction + encode, and the client's decode.
void ReplayRead(ShardedStore& store, const Plan& plan, const Op& op,
                const ExpectFn& expect, LayerTimes* times) {
  const uint64_t t0 = NowNs();
  const ClusterSnapshot snapshot = store.Snapshot();
  const uint64_t t1 = NowNs();
  std::vector<Expected<SpanRelation>> relations;
  for (uint64_t doc : op.docs) {
    relations.push_back(store.Evaluate(plan.patterns[op.pattern].regex, snapshot, doc));
  }
  const uint64_t t2 = NowNs();
  QueryResponse response;
  response.snapshot_versions = snapshot.versions();
  for (std::size_t i = 0; i < op.docs.size(); ++i) {
    WireDocResult out;
    out.doc = op.docs[i];
    if (!relations[i].ok()) {
      out.ok = false;
      out.error = relations[i].error();
    } else {
      out.num_tuples = relations[i]->size();
      for (const SpanTuple& tuple : *relations[i]) {
        if (out.tuples.size() >= plan.max_tuples) break;
        out.tuples.push_back(tuple);
      }
    }
    response.results.push_back(std::move(out));
  }
  const std::string encoded = EncodeQueryResponse(response);
  const uint64_t t3 = NowNs();
  Expected<QueryResponse> decoded = DecodeQueryResponse(encoded);
  const uint64_t t4 = NowNs();
  if (!decoded.ok()) Fail("decode: " + decoded.error());
  times->snapshot_us.push_back((t1 - t0) / 1000.0);
  times->query_us.push_back((t2 - t1) / 1000.0);
  times->encode_us.push_back((t3 - t2) / 1000.0);
  times->decode_us.push_back((t4 - t3) / 1000.0);
  times->serve_us.push_back((t3 - t0) / 1000.0);
  times->response_bytes += static_cast<double>(encoded.size());
  ++times->reads;
  times->mismatches += Mismatches(op, *decoded, plan.max_tuples, expect);
}

void TimedCommit(ShardedStore& store, const WriteBatch& batch, LayerTimes* times) {
  const uint64_t start = NowNs();
  Expected<ClusterCommitReceipt> receipt = store.Commit(batch);
  const uint64_t elapsed = NowNs() - start;
  if (!receipt.ok()) Fail("in-process commit: " + receipt.error());
  times->commit_us.push_back(elapsed / 1000.0);
}

/// First-use compile of every pattern the plan queries, each in a fresh
/// Session.
void TimeCompiles(const Plan& plan, LayerTimes* times) {
  for (const PatternSpec& pattern : plan.patterns) {
    Session session;
    const uint64_t start = NowNs();
    Expected<const CompiledQuery*> compiled = session.Compile(pattern.regex);
    const uint64_t elapsed = NowNs() - start;
    if (!compiled.ok()) Fail("compile: " + compiled.error());
    times->compile_us.push_back(elapsed / 1000.0);
  }
}

/// slp.cde_apply_us: the edits' CDE evaluation alone, on an arena holding
/// the corpus, each edit replacing its document's root.
void TimeCdeApply(const Plan& plan, LayerTimes* times) {
  Slp slp;
  std::vector<NodeId> roots;
  for (const std::string& text : plan.corpus) roots.push_back(BalancedFromString(slp, text));
  for (const std::vector<EditOp>* edits : {&plan.prep_edits, &plan.edits}) {
    for (const EditOp& edit : *edits) {
      Expected<std::unique_ptr<CdeExpr>> expr = ParseCdeChecked(edit.cde);
      if (!expr.ok()) Fail("cde parse: " + expr.error());
      const uint64_t start = NowNs();
      Expected<NodeId> root = EvalCdeOnChecked(&slp, roots, **expr);
      const uint64_t elapsed = NowNs() - start;
      if (!root.ok()) Fail("cde apply: " + root.error());
      roots[edit.doc - 1] = *root;
      times->cde_apply_us.push_back(elapsed / 1000.0);
    }
  }
}

class Runner {
 public:
  explicit Runner(const Options& options)
      : options_(options), plan_(MakePlan(options.workload, options.seed, options.seconds)) {
    SplitCpus(&server_cpus_, &client_cpus_);
    PinTo(client_cpus_);
    run_dir_ = std::filesystem::absolute(".bench_build/run/" +
                                         std::string(WorkloadName(options.workload)) + "-" +
                                         std::to_string(getpid()))
                   .string();
    std::filesystem::remove_all(run_dir_);
    std::filesystem::create_directories(run_dir_);
  }

  ~Runner() {
    server_.Kill(SIGKILL);
    std::error_code ignored;
    std::filesystem::remove_all(run_dir_, ignored);
  }

  int Run() {
    if (options_.workload == Workload::kEditRequery) {
      SetUpEditRequery();
    } else {
      SetUpReadWorkload();
    }
    std::map<std::string, double> metrics_before;
    if (options_.trace) metrics_before = FetchMetrics(server_.port());
    const auto [steal_before, jiffies_before] = StealAndTotalJiffies();
    CpuSampler cpu(server_);
    const uint64_t start = NowNs();
    if (options_.workload == Workload::kEditRequery) {
      TimedEditRequery();
    } else {
      TimedReadWorkload();
    }
    const double timed_s = (NowNs() - start) / 1e9;
    cpu.Stop();
    const double cpu_s = cpu.Total();
    const auto [steal_after, jiffies_after] = StealAndTotalJiffies();
    // CPU time the hypervisor gave to other guests during the timed phase:
    // the main source of run-to-run drift on a shared VM (README.md).
    steal_pct_ = Ratio(100.0 * static_cast<double>(steal_after - steal_before),
                       static_cast<double>(jiffies_after - jiffies_before));
    std::map<std::string, double> metrics_after;
    if (options_.trace) metrics_after = FetchMetrics(server_.port());
    if (options_.workload == Workload::kEditRequery) {
      // Every document answers as the model says at the final heads.
      SpannerClient client = Connect(server_.port());
      stats_.mismatches += QueryEverything(client, plan_, plan_.warm_patterns, Expectations());
    }
    const double peak_rss_mib = server_.PeakRssMib();
    server_.Kill(options_.workload == Workload::kEditRequery ? SIGKILL : SIGTERM);

    const std::vector<double> read_us = ToUs(stats_.reads.latency_ns);
    const std::vector<double> write_us = ToUs(stats_.writes.latency_ns);
    std::vector<Metric> metrics;
    if (!options_.trace) {
      std::vector<uint64_t> ends = stats_.reads.end_ns;
      ends.insert(ends.end(), stats_.writes.end_ns.begin(), stats_.writes.end_ns.end());
      metrics = {
          {"read_p50_us", WindowedPercentile(stats_.reads, 50), "us"},
          {"read_p90_us", WindowedPercentile(stats_.reads, 90), "us"},
          {"write_p50_us", WindowedPercentile(stats_.writes, 50), "us"},
          {"write_p90_us", WindowedPercentile(stats_.writes, 90), "us"},
          {"server_cpu_us_per_op", cpu.WindowedUsPerOp(std::move(ends)), "us"},
          {"peak_rss_mib", peak_rss_mib, "MiB"},
          {"setup_s", Percentile(setup_s_, 50), "s"},
      };
    } else {
      metrics = TraceMetrics(metrics_before, metrics_after, timed_s);
    }
    PrintStamp(read_us, write_us, timed_s, cpu_s);
    const bool correct = stats_.mismatches == 0 && stats_.violations == 0 &&
                         replay_mismatches_ == 0 && setup_mismatches_ == 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", stats_.attempted, stats_.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics[i].name.c_str(), FormatDouble(metrics[i].value).c_str(),
                  metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
  }

 private:
  /// The oracle lookup for this workload (its expectations must be built).
  ExpectFn Expectations() const {
    if (options_.workload == Workload::kEditRequery) {
      return [this](uint32_t pattern, uint64_t doc, const std::vector<uint64_t>& versions) {
        return versioned_expect_->Get(pattern, doc, versions);
      };
    }
    return [this](uint32_t pattern, uint64_t doc, const std::vector<uint64_t>&) {
      return doc >= 1 && doc <= plan_.corpus.size() ? &static_expect_->Get(pattern, doc)
                                                    : nullptr;
    };
  }

  /// warm_read / cold_extract set-up, kSetupRepetitions times from a fresh
  /// process: spawn, load the corpus, warm (every warm pattern over every
  /// document, then the plan's warm-up reads). The last server stays up.
  void SetUpReadWorkload() {
    static_expect_ = std::make_unique<StaticExpectations>(plan_);
    const ExpectFn expect = Expectations();
    for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
      server_.Kill(SIGTERM);
      const uint64_t start = NowNs();
      server_.Start("", server_cpus_);
      SpannerClient client = Connect(server_.port());
      LoadCorpus(client, plan_);
      for (uint32_t p : plan_.warm_patterns) {
        Op op{p, {}};
        for (uint64_t doc = 1; doc <= plan_.corpus.size(); ++doc) op.docs.push_back(doc);
        Expected<QueryResponse> response = client.Query(MakeRequest(plan_, op));
        if (!response.ok()) Fail("warm: " + response.error());
        setup_mismatches_ += Mismatches(op, *response, plan_.max_tuples, expect);
      }
      for (const Op& op : plan_.warmup_reads) {
        Expected<QueryResponse> response = client.Query(MakeRequest(plan_, op));
        if (!response.ok()) Fail("warm-up: " + response.error());
        setup_mismatches_ += Mismatches(op, *response, plan_.max_tuples, expect);
      }
      setup_s_.push_back((NowNs() - start) / 1e9);
    }
  }

  /// edit_requery set-up. Untimed preparation: a durable server loads the
  /// corpus and commits the prep edits, then is SIGKILLed. Each repetition
  /// then restarts on that directory and is timed to its first answered
  /// query; every acknowledged commit must be visible afterwards.
  void SetUpEditRequery() {
    store_dir_ = run_dir_ + "/store";
    {
      server_.Start(store_dir_, server_cpus_);
      SpannerClient client = Connect(server_.port());
      LoadCorpus(client, plan_);
      Expected<SnapshotResponse> loaded = client.Snapshot();
      if (!loaded.ok()) Fail("snapshot: " + loaded.error());
      versioned_expect_ = std::make_unique<VersionedExpectations>(plan_, loaded->versions);
      PhaseStats prep;
      RunEdits(server_.port(), plan_.prep_edits, 0, *versioned_expect_, nullptr, nullptr, &prep);
      if (prep.failed != 0 || prep.mismatches != 0) Fail("prep edits were not acknowledged");
      server_.Kill(SIGKILL);
    }
    if (options_.trace) {
      std::filesystem::copy(store_dir_, run_dir_ + "/prep-copy",
                            std::filesystem::copy_options::recursive);
    }
    const ExpectFn expect = Expectations();
    for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
      server_.Kill(SIGKILL);
      const uint64_t start = NowNs();
      server_.Start(store_dir_, server_cpus_);
      SpannerClient client = Connect(server_.port());
      const Op first{0, {plan_.hot_docs.front()}};
      Expected<QueryResponse> answered = client.Query(MakeRequest(plan_, first));
      if (!answered.ok()) Fail("first query: " + answered.error());
      setup_s_.push_back((NowNs() - start) / 1e9);
      // Durability: the recovered heads are exactly the acknowledged ones,
      // and every document reads as the model says.
      Expected<SnapshotResponse> recovered = client.Snapshot();
      if (!recovered.ok()) Fail("snapshot: " + recovered.error());
      if (recovered->versions != versioned_expect_->AfterPrep()) ++setup_mismatches_;
      setup_mismatches_ += Mismatches(first, *answered, plan_.max_tuples, expect);
      setup_mismatches_ += QueryEverything(client, plan_, plan_.warm_patterns, expect);
    }
  }

  void TimedReadWorkload() {
    const ExpectFn expect = Expectations();
    std::vector<PhaseStats> per_connection(plan_.reads.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < plan_.reads.size(); ++c) {
      threads.emplace_back(RunReader, server_.port(), std::cref(plan_), std::cref(plan_.reads[c]),
                           std::cref(expect), nullptr, nullptr, &per_connection[c]);
    }
    for (std::thread& thread : threads) thread.join();
    for (const PhaseStats& stats : per_connection) stats_.Merge(stats);
    // The two connections' inserts interleave, so ids are checked as a set:
    // exactly the next plan.ingest.size() ids, each once.
    std::vector<uint64_t> created = stats_.created;
    std::sort(created.begin(), created.end());
    for (std::size_t j = 0; j < plan_.ingest.size(); ++j) {
      if (j >= created.size() || created[j] != plan_.corpus.size() + j + 1) {
        ++stats_.mismatches;
      }
    }
    if (created.size() != plan_.ingest.size()) ++stats_.mismatches;
  }

  void TimedEditRequery() {
    const ExpectFn expect = Expectations();
    std::atomic<uint64_t> acked{0}, reads_done{0};
    PhaseStats reader, writer;
    std::thread read_thread(RunReader, server_.port(), std::cref(plan_),
                            std::cref(plan_.reads[0]), std::cref(expect), &acked, &reads_done,
                            &reader);
    RunEdits(server_.port(), plan_.edits, plan_.prep_edits.size(), *versioned_expect_, &acked,
             &reads_done, &writer);
    read_thread.join();
    stats_.Merge(reader);
    stats_.Merge(writer);
  }

  std::vector<Metric> TraceMetrics(const std::map<std::string, double>& before,
                                   const std::map<std::string, double>& after,
                                   double timed_s) {
    LayerTimes times = ReplayInProcess();
    auto d = [&](const char* name, const char* suffix) {
      return Delta(before, after, name, suffix);
    };
    const double reads = static_cast<double>(stats_.reads.size());
    const double ops = reads + static_cast<double>(stats_.writes.size());
    const double commits = d("store.commits", "_total");
    const double hits = d("store.cache.hit", "_total");
    const double misses = d("store.cache.miss", "_total");
    const double spliced = d("store.cache.spliced", "_total");
    const double pool_batches = d("pool.batches", "_total");
    const double pool_threads = 1.0;  // SPANNERS_THREADS=1 on the server
    const double wire_p50 = WindowedPercentile(stats_.reads, 50);
    const double serve_p50 = Percentile(times.serve_us, 50);
    const double snapshot_p50 = Percentile(times.snapshot_us, 50);
    const double query_p50 = Percentile(times.query_us, 50);
    const double encode_p50 = Percentile(times.encode_us, 50);
    const double fill_us_per_op = Ratio(d("slp.fill_ns", "_sum") / 1000.0, reads);
    std::printf(
        "trace: read p50 over the wire %.1f us | in-process per op (p50): snapshot %.2f + "
        "query %.1f + encode %.2f = %.1f us (p50 of the sum %.1f) | residual (loopback, "
        "queue hand-offs, decode, client, and contention between concurrent requests) "
        "%.1f us\n",
        wire_p50, snapshot_p50, query_p50, encode_p50, snapshot_p50 + query_p50 + encode_p50,
        serve_p50, wire_p50 - serve_p50);
    std::printf(
        "trace: server counters over the timed phase (%.2f s): %.0f cache hits, %.0f misses, "
        "%.0f spliced, %.0f commits, %.0f gc compactions, slp fill %.1f us/read, %.0f "
        "tuples enumerated\n",
        timed_s, hits, misses, spliced, commits, d("store.gc.compactions", "_total"),
        fill_us_per_op, d("slp.enum.tuples", "_total"));
    return {
        {"net.rpc_residual_us", wire_p50 - serve_p50, "us"},
        {"net.encode_us", encode_p50, "us"},
        {"net.decode_us", Percentile(times.decode_us, 50), "us"},
        {"net.response_kib_per_op", Ratio(times.response_bytes / 1024.0, times.reads), "KiB"},
        {"server.snapshot_us", snapshot_p50, "us"},
        {"server.shed_per_1k_ops",
         Ratio((d("server.shed", "_total") + stats_.retries) * 1000.0, ops), "count"},
        {"server.commit_us", Percentile(times.commit_us, 50), "us"},
        {"store.query_us", query_p50, "us"},
        {"store.cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"store.cache.evicted_mib_per_1k_ops",
         Ratio(d("store.cache.evicted_bytes", "_total") / 1048576.0 * 1000.0, ops), "MiB"},
        {"store.cache.spliced_ratio", Ratio(spliced, misses), "ratio"},
        {"store.cache.refilled_nodes_per_splice",
         Ratio(d("store.cache.refilled_nodes", "_total"), spliced), "count"},
        {"store.wal.append_us",
         Ratio(d("wal.append_ns", "_sum") / 1000.0, d("wal.append_ns", "_count")), "us"},
        {"store.gc.compactions", d("store.gc.compactions", "_total"), "count"},
        {"store.gc.compactions_per_1k_commits",
         Ratio(d("store.gc.compactions", "_total") * 1000.0, commits), "count"},
        {"store.gc.pause_us",
         Ratio(d("store.gc.pause_ns", "_sum") / 1000.0, d("store.gc.pause_ns", "_count")), "us"},
        {"store.open_ms", times.open_ms, "ms"},
        {"store.wal.replay_records", times.replay_records, "count"},
        {"engine.compile_us", Percentile(times.compile_us, 50), "us"},
        {"engine.compiles_per_1k_ops",
         Ratio(d("engine.queries.compiled", "_total") * 1000.0, ops), "count"},
        {"slp.fill_us_per_op", fill_us_per_op, "us"},
        {"slp.fill_nodes_per_op", Ratio(d("slp.fill.nodes", "_total"), reads), "count"},
        {"slp.fill_share_of_query", times.fill_share, "ratio"},
        {"slp.cde_apply_us", Percentile(times.cde_apply_us, 50), "us"},
        {"core.enum_tuples_per_op", Ratio(d("slp.enum.tuples", "_total"), reads), "count"},
        {"pool.utilization",
         Ratio(d("pool.busy_ns", "_total"), d("pool.batch_ns", "_sum") * pool_threads), "ratio"},
        {"pool.inline_batch_ratio", Ratio(d("pool.inline_batches", "_total"), pool_batches),
         "ratio"},
    };
  }

  /// The traced in-process replay (see LayerTimes).
  LayerTimes ReplayInProcess() {
    LayerTimes times;
    TimeCompiles(plan_, &times);
    const ExpectFn expect = Expectations();
    ClusterOptions options;
    options.store.wal_sync = kWalSync;
    std::unique_ptr<ShardedStore> store;
    if (options_.workload == Workload::kEditRequery) {
      TimeCdeApply(plan_, &times);
      // store.open_ms: recovery of the crashed set-up directory.
      const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
      const uint64_t start = NowNs();
      Expected<std::unique_ptr<ShardedStore>> opened =
          ShardedStore::Open(run_dir_ + "/prep-copy", options);
      times.open_ms = (NowNs() - start) / 1e6;
      if (!opened.ok()) Fail("in-process open: " + opened.error());
      times.replay_records = static_cast<double>(
          MetricsRegistry::Global().Snapshot().counter("wal.replay.records") -
          before.counter("wal.replay.records"));
      store = std::move(*opened);
    } else {
      store = std::make_unique<ShardedStore>(options);
      for (const std::string& text : plan_.corpus) {
        WriteBatch batch;
        batch.Insert(text);
        if (Expected<ClusterCommitReceipt> r = store->Commit(batch); !r.ok()) {
          Fail("in-process load: " + r.error());
        }
      }
    }
    for (uint32_t p : plan_.warm_patterns) {
      const ClusterSnapshot snapshot = store->Snapshot();
      for (uint64_t doc = 1; doc <= plan_.corpus.size(); ++doc) {
        (void)store->Evaluate(plan_.patterns[p].regex, snapshot, doc);
      }
    }
    LayerTimes warmup;
    for (const Op& op : plan_.warmup_reads) ReplayRead(*store, plan_, op, expect, &warmup);
    replay_mismatches_ += warmup.mismatches;

    // The first connection's ops (the second repeats their distribution);
    // edit_requery reads once per kEditsPerRead commits, as on the wire.
    const std::vector<Op>& reads = plan_.reads[0];
    const MetricsSnapshot before_reads = MetricsRegistry::Global().Snapshot();
    if (options_.workload == Workload::kEditRequery) {
      for (std::size_t e = 0; e < plan_.edits.size(); ++e) {
        WriteBatch batch;
        batch.Edit(plan_.edits[e].doc, plan_.edits[e].cde);
        TimedCommit(*store, batch, &times);
        if ((e + 1) % kEditsPerRead == 0 && (e + 1) / kEditsPerRead <= reads.size()) {
          ReplayRead(*store, plan_, reads[(e + 1) / kEditsPerRead - 1], expect, &times);
        }
      }
    } else {
      for (const Op& op : reads) {
        if (op.ingest < 0) {
          ReplayRead(*store, plan_, op, expect, &times);
          continue;
        }
        WriteBatch batch;
        batch.Insert(plan_.ingest[static_cast<std::size_t>(op.ingest)]);
        TimedCommit(*store, batch, &times);
      }
    }
    replay_mismatches_ += times.mismatches;
    auto fill_ns = [](const MetricsSnapshot& snapshot) {
      auto it = snapshot.histograms.find("slp.fill_ns");
      return it == snapshot.histograms.end() ? 0.0 : static_cast<double>(it->second.sum);
    };
    double query_ns = 0;
    for (double us : times.query_us) query_ns += us * 1000.0;
    times.fill_share =
        Ratio(fill_ns(MetricsRegistry::Global().Snapshot()) - fill_ns(before_reads), query_ns);
    return times;
  }

  void PrintStamp(const std::vector<double>& read_us, const std::vector<double>& write_us,
                  double timed_s, double cpu_s) {
    const char* trace = std::getenv("SPANNERS_TRACE");
    const char* threads = std::getenv("SPANNERS_THREADS");
    const ServerOptions serve;
    const ClusterOptions cluster;
    std::string wal = "none (ephemeral store)";
    if (options_.workload == Workload::kEditRequery) {
      wal = run_dir_ + "/store on " + FileSystemType(run_dir_) +
            ", wal_sync=" + (kWalSync ? "on" : "off");
    }
    std::ostringstream setups;
    for (double s : setup_s_) setups << (setups.tellp() > 0 ? "," : "") << FormatDouble(s);
    std::printf(
        "# stamp {\"git\": %s, \"build_type\": %s, \"optimized\": true, \"compiler\": %s, "
        "\"nproc\": %u, \"server_cpus\": %s, \"client_cpus\": %s, \"server\": {\"shards\": "
        "%zu, \"worker_threads\": %zu, \"queue_capacity\": %zu, \"window\": %zu, "
        "\"SPANNERS_THREADS\": %s}, \"SPANNERS_TRACE\": %s, \"wal\": %s, \"workload\": %s, "
        "\"seed\": %" PRIu64 ", \"plan_fnv\": \"%016" PRIx64 "\", \"seconds\": %u, "
        "\"trace\": %d, \"timed_s\": %.3f, "
        "\"server_cpu_s\": %.3f, \"host_steal_pct\": %.1f, \"read_samples\": %zu, "
        "\"write_samples\": %zu, "
        "\"audits\": %" PRIu64 ", \"retries\": %" PRIu64 ", \"attempted\": %" PRIu64
        ", \"failed\": %" PRIu64 ", \"failed_share\": %.6f, \"mismatches\": %" PRIu64
        ", \"isolation_violations\": %" PRIu64 ", \"setup_mismatches\": %" PRIu64
        ", \"read_p99_us\": %.2f, \"write_p99_us\": %.2f, \"setup_s_samples\": [%s]}\n",
        JsonString(options_.git).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
        JsonString(PERFBENCH_COMPILER).c_str(), std::thread::hardware_concurrency(),
        JsonString(CpuList(server_cpus_)).c_str(), JsonString(CpuList(client_cpus_)).c_str(),
        cluster.num_shards, serve.worker_threads, serve.queue_capacity,
        serve.per_connection_window, JsonString(threads ? threads : "unset").c_str(),
        JsonString(trace ? trace : "unset (counters)").c_str(), JsonString(wal).c_str(),
        JsonString(std::string(WorkloadName(options_.workload))).c_str(), options_.seed,
        PlanDigest(plan_), options_.seconds, options_.trace ? 1 : 0, timed_s, cpu_s, steal_pct_,
        read_us.size(),
        write_us.size(), stats_.audits, stats_.retries, stats_.attempted, stats_.failed,
        Ratio(static_cast<double>(stats_.failed), static_cast<double>(stats_.attempted)),
        stats_.mismatches, stats_.violations, setup_mismatches_, Percentile(read_us, 99),
        Percentile(write_us, 99), setups.str().c_str());
  }

  Options options_;
  Plan plan_;
  std::vector<int> server_cpus_, client_cpus_;
  std::string run_dir_;
  std::string store_dir_;
  ServerProcess server_;
  std::unique_ptr<StaticExpectations> static_expect_;
  std::unique_ptr<VersionedExpectations> versioned_expect_;
  std::vector<double> setup_s_;
  PhaseStats stats_;
  uint64_t setup_mismatches_ = 0;
  uint64_t replay_mismatches_ = 0;
  double steal_pct_ = 0;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload warm_read|cold_extract|edit_requery "
               "--seed N --seconds S --trace 0|1 [--git DESC]\n"
               "       perfbench serve [--dir PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage();
  if (mode == "serve") return Serve(flags.count("dir") ? flags["dir"] : "");
  if (mode != "run") return Usage();
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimized (%s) build\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") return 3;
  Options options;
  const std::optional<Workload> workload = ParseWorkload(flags["workload"]);
  if (!workload) return Usage();
  options.workload = *workload;
  try {
    options.seed = std::stoull(flags.count("seed") ? flags["seed"] : "1");
    options.seconds = static_cast<unsigned>(std::stoul(flags.count("seconds") ? flags["seconds"] : "10"));
    options.trace = flags.count("trace") && flags["trace"] != "0";
  } catch (const std::exception&) {
    return Usage();
  }
  if (options.seconds == 0 || options.seconds > 60) return Usage();
  if (flags.count("git")) options.git = flags["git"];
  // A dead connection must surface as an error, not kill the client.
  signal(SIGPIPE, SIG_IGN);
  Runner runner(options);
  return runner.Run();
}
