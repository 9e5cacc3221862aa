// The repository benchmark: one process runs one workload against the
// library's public API and prints every metric with its unit, then a final
// JSON line {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <serve_uniform|cold_file>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md for the workloads, metrics and the layer map). Every answer
// is checked against a brute-force oracle after the clock stops. A run whose
// rounds the host, not the program, paced (see kMaxStealFrac) still prints
// a result, from its least contended rounds, and says so on a CONTENDED RUN
// line.

#include <pthread.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "core/database.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/server_loop.h"
#include "serving/sharded_database.h"
#include "storage/buffer_pool.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
constexpr double kInf = std::numeric_limits<double>::infinity();

double MsSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// The median (the mean of the middle two for an even count).
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Progress on stderr: seconds since start and resident memory.
void Log(const char* what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[perfbench %7.2fs rss %6.0f MB] %s\n",
               MsSince(start, Clock::now()) / 1000.0, RssMb(), what);
}

// Set-ups per run; setup_s reports their median (an odd count, so the
// median is one of them).
constexpr int kSetupRepeats = 3;
// Measurement rounds of a run: serving rounds are a closed-loop window and
// an open-loop window; cold_file rounds are one closed-loop window of whole
// kCycle-query cycles.
constexpr int kServeRounds = 9;
constexpr int kColdRounds = 5;
// serve_uniform's open-loop offered rate: about a third of its closed-loop
// throughput_qps on the parent commit (13,000-15,000 q/s on a 4-CPU host,
// 3 workers), so that host contention, which can halve throughput, does not
// turn the open loop into an overload test.
constexpr double kRateQps = 4000.0;
// The highest rate a closed-loop phase is sized for: its stream and request
// slots are allocated before it starts, so the harness's memory does not
// depend on the rate it reaches.
double MaxQps(Workload w) { return w == Workload::kColdFile ? 1000 : 40000; }
// Admission queue bound: deep enough that a host stall of tens of
// milliseconds queues rather than sheds at the offered rate.
constexpr size_t kQueueCapacity = 4096;
// A round is invalid, and measured again, when something other than the
// program set its pace:
// - the open-loop generator fell behind: its median lateness exceeds
//   kMaxGeneratorLagP50Ms, or its schedule was paused (its CPU taken away,
//   see RunOpen) for more than kMaxPausedShare of the window, so it did not
//   offer the stated rate;
// - the hypervisor took more than kMaxStealFrac of the machine's CPU time
//   (/proc/stat steal). The busy time of other processes is printed but
//   not judged: over sub-second windows the kernel's split between this
//   process and the rest is too coarse;
// - a phase ran out of queries.
constexpr double kMaxGeneratorLagP50Ms = 0.1;
constexpr double kMaxPausedShare = 0.1;
constexpr double kMaxStealFrac = 0.02;
// Invalid rounds are measured again until all are valid, for at most this
// many times the planned measuring time in all. A run that then has fewer
// than kMinValidShare of its rounds valid makes up that share with its
// invalid rounds of least steal, and prints a CONTENDED RUN line.
constexpr double kRetryBudget = 1.5;
constexpr double kMinValidShare = 0.5;
// The traced run's reconciliation: the layer self times of its median
// requests plus the remainder should come within this share of the untraced
// latency p50.
constexpr double kReconcileTolerance = 0.10;
// Traced requests whose spans go to the trace file.
constexpr size_t kTraceFileRequests = 200;
// Largest k of any workload; answers are stored inline.
constexpr size_t kMaxK = 10;

// ---- CPUs ----

// The CPUs the process started with (read before any thread is pinned).
const cpu_set_t& StartCpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return cpus;
}

unsigned NumCpus() { return static_cast<unsigned>(CPU_COUNT(&StartCpus())); }

// ServerLoop workers: every CPU but the generator's.
size_t Workers() { return NumCpus() > 1 ? NumCpus() - 1 : 1; }

void PinThisThread(const cpu_set_t& set) {
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// The generator's CPU (the first allowed one), or all the others.
cpu_set_t GeneratorCpu(bool generator) {
  cpu_set_t set;
  CPU_ZERO(&set);
  bool first = true;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &StartCpus())) continue;
    if (first == generator) CPU_SET(c, &set);
    first = false;
  }
  return set;
}

// A spin-wait hint, which leaves the core's shared resources to its
// hyperthread sibling.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// While it lives, one thread per CPU of `cpus` polls at SCHED_IDLE priority,
// as the kernel's idle=poll would: the CPU never halts, and any runnable
// task preempts the poller at once. On a virtual machine a halted CPU is
// descheduled by the hypervisor, and waking it for the next request or I/O
// completion waits for the host's scheduler; on a shared host that wait
// (counted as steal) was the main part of the run-to-run spread, which
// measures the host, not the program.
class IdlePollers {
 public:
  explicit IdlePollers(const cpu_set_t& cpus) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &cpus)) continue;
      threads_.emplace_back([this, cpu] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        PinThisThread(one);
        const sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) CpuRelax();
      });
    }
  }
  ~IdlePollers() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// The CPUs that poll while a run measures: every CPU but the serving
// generator's, which its own thread spins on.
cpu_set_t PollerCpus(bool serving) {
  if (!serving) return StartCpus();
  cpu_set_t none;
  CPU_ZERO(&none);
  return NumCpus() > 1 ? GeneratorCpu(false) : none;
}

// ---- Arguments ----

struct Args {
  Workload workload = Workload::kServeUniform;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

// ---- Requests and phases ----

struct Request {
  Clock::time_point start;  // Due (open loop) or sent time.
  Clock::time_point end;    // Callback / return time.
  bool shed = false;
  bool ok = false;
  bool correct = false;  // Filled by CheckAnswers.
  // The QueryStats fields the metrics use (the full struct carries
  // per-level vectors, too heavy to keep per request).
  bool cache_hit = false;  // Answered by the result cache.
  double sim_disk_ms = 0;
  uint64_t random_reads = 0;      // Physical: demand + speculative.
  uint64_t sequential_reads = 0;  // Physical: demand + speculative.
  uint64_t shards_queried = 0;
  uint64_t shards_pruned = 0;
  uint32_t answer_size = 0;  // kMaxK + 1 marks an over-long answer.
  std::array<Hit, kMaxK> answer;

  double LatencyMs() const {
    return shed || !ok || !correct ? kInf : MsSince(start, end);
  }
};

void Record(Request* r,
            const ir2::StatusOr<std::vector<ir2::QueryResult>>& res,
            const ir2::QueryStats& stats) {
  r->ok = res.ok();
  r->sim_disk_ms = stats.simulated_disk_ms;
  r->random_reads = stats.io.random_reads + stats.speculative_io.random_reads;
  r->sequential_reads =
      stats.io.sequential_reads + stats.speculative_io.sequential_reads;
  r->shards_queried = stats.shards_queried;
  r->shards_pruned = stats.shards_pruned;
  r->cache_hit = stats.result_cache_hits + stats.result_cache_near_hits > 0;
  if (!res.ok()) return;
  if (res.value().size() > kMaxK) {
    r->answer_size = kMaxK + 1;
    return;
  }
  r->answer_size = static_cast<uint32_t>(res.value().size());
  for (size_t i = 0; i < res.value().size(); ++i) {
    r->answer[i] = Hit{res.value()[i].distance, res.value()[i].object_id};
  }
}

// One phase of a run: its own slice of the seeded query stream, one request
// slot per query, both allocated before the phase starts.
struct Phase {
  std::vector<ir2::DistanceFirstQuery> queries;
  std::vector<Request> requests;  // requests[i] serves queries[i].
  size_t used = 0;
  bool exhausted = false;
  Clock::time_point deadline;
  double seconds = 0;
  std::vector<double> generator_lag_ms;
  std::vector<double> submit_us;
  double paused_ms = 0;  // Open loop: schedule paused while preempted.

  Request* Next() {
    if (used == requests.size()) {
      exhausted = true;
      return nullptr;
    }
    return &requests[used++];
  }
  const ir2::DistanceFirstQuery& QueryOf(const Request* r) const {
    return queries[static_cast<size_t>(r - requests.data())];
  }
};

uint64_t MixSeed(uint64_t seed, uint64_t phase) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + phase + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::unique_ptr<Phase> MakePhase(const QueryMaker& maker, uint64_t seed,
                                 uint64_t id, size_t n) {
  auto phase = std::make_unique<Phase>();
  phase->queries = maker.Make(MixSeed(seed, id), n);
  phase->requests.resize(phase->queries.size());
  return phase;
}

// Checks every completed answer of `phase` against the oracle (off the
// clock): the objects matching each distinct keyword set are found once,
// then every answer is compared with the k nearest matches, on all CPUs.
uint64_t CheckAnswers(const Oracle& oracle, Phase& phase) {
  std::map<std::vector<uint64_t>, std::vector<uint32_t>> containing;
  std::vector<size_t> todo;
  std::vector<const std::vector<uint32_t>*> matches;
  std::vector<std::vector<uint64_t>> words;
  for (size_t i = 0; i < phase.used; ++i) {
    const Request& r = phase.requests[i];
    if (r.shed || !r.ok) continue;
    std::vector<uint64_t> w = oracle.Words(phase.queries[i]);
    auto it = containing.find(w);
    if (it == containing.end()) {
      it = containing.emplace(w, oracle.Containing(w)).first;
    }
    todo.push_back(i);
    matches.push_back(&it->second);
    words.push_back(std::move(w));
  }
  const size_t threads = NumCpus();
  std::vector<uint64_t> mismatches(threads, 0);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PinThisThread(StartCpus());
      for (size_t j = t; j < todo.size(); j += threads) {
        Request& r = phase.requests[todo[j]];
        const ir2::DistanceFirstQuery& q = phase.queries[todo[j]];
        const std::vector<Hit> got(
            r.answer.begin(),
            r.answer.begin() + std::min<size_t>(r.answer_size, kMaxK));
        r.correct = r.answer_size <= kMaxK &&
                    oracle.Check(q, words[j],
                                 oracle.Nearest(*matches[j], q.point, q.k),
                                 got);
        if (!r.correct) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : pool) th.join();
  uint64_t total = 0;
  for (uint64_t m : mismatches) total += m;
  return total;
}

// Outcome counts over checked phases.
struct Tally {
  uint64_t attempted = 0, shed = 0, errors = 0, served = 0, mismatches = 0;
  bool exhausted = false;
  double sim_ms = 0;

  void Add(const Phase& phase, uint64_t phase_mismatches) {
    mismatches += phase_mismatches;
    exhausted |= phase.exhausted;
    for (size_t i = 0; i < phase.used; ++i) {
      const Request& r = phase.requests[i];
      ++attempted;
      if (r.shed) {
        ++shed;
      } else if (!r.ok) {
        ++errors;
      } else {
        ++served;
        sim_ms += r.sim_disk_ms;
      }
    }
  }
  uint64_t failed() const { return shed + errors + mismatches; }
};

// ---- Set-up ----

struct Tier {
  std::vector<ir2::StoredObject> objects;
  // Serving workloads. The loop is declared last so it is destroyed (its
  // workers joined) before the database it serves.
  std::unique_ptr<ir2::serving::ShardedDatabase> sharded;
  std::unique_ptr<ir2::serving::ServerLoop> loop;
  // cold_file.
  std::unique_ptr<ir2::SpatialKeywordDatabase> db;
  uint64_t saved_bytes = 0;
};

[[noreturn]] void Fail(const ir2::Status& status, const char* what) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// Generate, build, (Save, Open,) start: the time to the first servable
// query.
std::unique_ptr<Tier> SetUp(Workload w, const std::string& data_dir) {
  auto tier = std::make_unique<Tier>();
  tier->objects = ir2::GenerateDataset(DatasetConfig(w));
  if (w == Workload::kColdFile) {
    ir2::DatabaseOptions options;
    options.locality_placement = true;
    {
      auto built = ir2::SpatialKeywordDatabase::Build(tier->objects, options);
      if (!built.ok()) Fail(built.status(), "Build");
      ir2::Status saved = built.value()->Save(data_dir);
      if (!saved.ok()) Fail(saved, "Save");
    }
    ir2::DatabaseOptions runtime = options;
    runtime.cold_queries = true;
    runtime.prefetch = true;
    runtime.scheduler.synchronous = true;
    runtime.file_device.direct_io = true;
    auto opened = ir2::SpatialKeywordDatabase::Open(data_dir, runtime);
    if (!opened.ok()) Fail(opened.status(), "Open");
    tier->db = std::move(opened).value();
    tier->saved_bytes = DirectoryBytes(data_dir);
    return tier;
  }
  ir2::DatabaseOptions options;
  // The paper's Restaurants signature (8 bytes, 3 hashes per word), as
  // bench_cache; serving needs the warm regime.
  options.ir2_signature = ir2::SignatureConfig{64, 3};
  options.cold_queries = false;
  ir2::serving::ShardingOptions sharding;
  sharding.num_shards = 4;
  sharding.curve = ir2::serving::CurveKind::kHilbert;
  auto built =
      ir2::serving::ShardedDatabase::Build(tier->objects, options, sharding);
  if (!built.ok()) Fail(built.status(), "ShardedDatabase::Build");
  tier->sharded = std::move(built).value();
  tier->sharded->EnableResultCache();
  ir2::serving::ServerLoopOptions loop_options;
  loop_options.num_workers = Workers();
  loop_options.queue_capacity = kQueueCapacity;
  loop_options.algorithm = ir2::Algorithm::kAuto;
  // The workers inherit the CPUs of the thread that starts them: all but
  // the generator's, which this (the generator) thread then keeps.
  const bool pin = NumCpus() > 1;
  if (pin) PinThisThread(GeneratorCpu(false));
  tier->loop = std::make_unique<ir2::serving::ServerLoop>(tier->sharded.get(),
                                                          loop_options);
  if (pin) PinThisThread(GeneratorCpu(true));
  return tier;
}

// Raw user data: each object's text plus its coordinates.
uint64_t UserBytes(const std::vector<ir2::StoredObject>& objects) {
  uint64_t bytes = 0;
  for (const ir2::StoredObject& o : objects) {
    bytes += o.text.size() + o.coords.size() * sizeof(double);
  }
  return bytes;
}

uint64_t StructureBytes(ir2::SpatialKeywordDatabase& db) {
  return db.ObjectFileBytes() + db.RTreeBytes() + db.Ir2TreeBytes() +
         db.Mir2TreeBytes() + db.KcTreeBytes() + db.IioBytes();
}

// ---- Load generators ----

// Closed loop: `outstanding` requests in flight through the server; the
// next is sent when one completes. The client spins on the count in flight
// (it owns the generator's CPU), so that it adds no wake-up of its own
// virtual CPU to each request.
void RunClosed(ir2::serving::ServerLoop& loop, Phase& phase,
               size_t outstanding, double seconds) {
  std::atomic<size_t> in_flight{0};
  phase.seconds = seconds;
  phase.deadline = Clock::now() + Seconds(seconds);
  while (Clock::now() < phase.deadline) {
    while (in_flight.load(std::memory_order_acquire) >= outstanding) {
      CpuRelax();
    }
    in_flight.fetch_add(1, std::memory_order_relaxed);
    Request* r = phase.Next();
    if (r == nullptr) break;
    r->start = Clock::now();
    auto admission = loop.Submit(
        "bench", phase.QueryOf(r),
        [&in_flight, r](ir2::StatusOr<std::vector<ir2::QueryResult>> res,
                        const ir2::QueryStats& stats) {
          r->end = Clock::now();
          Record(r, res, stats);
          in_flight.fetch_sub(1, std::memory_order_release);
        });
    if (admission.outcome !=
        ir2::serving::ServerLoop::Admission::Outcome::kAdmitted) {
      r->shed = true;
      in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  loop.Drain();
}

// Open loop at a fixed rate: request i is due at t0 + i / rate and is sent
// by spinning on the clock until that deadline (the generator owns one CPU;
// a sleep's wake-up on a virtual CPU can take milliseconds). Its latency runs
// from the due time to its callback, so a stall of the program also charges
// the requests queued behind it.
//
// The generator watches its own clock: a gap of more than kPreemptGap
// between two consecutive reads outside Submit means its CPU was taken away
// (by the host, not the program). The schedule then pauses by that gap, as
// if the users had paused, instead of releasing the missed requests in one
// burst whose latency would measure the generator. A slow Submit is the
// program's and does not pause the schedule.
void RunOpen(ir2::serving::ServerLoop& loop, Phase& phase, double rate_qps) {
  constexpr auto kPreemptGap = std::chrono::microseconds(100);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  Clock::duration paused{0};
  Clock::time_point last = Clock::now();
  auto tick = [&] {
    const Clock::time_point now = Clock::now();
    if (now - last > kPreemptGap) paused += now - last;
    last = now;
    return now;
  };
  phase.generator_lag_ms.reserve(phase.requests.size());
  phase.submit_us.reserve(phase.requests.size());
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Clock::duration offset = Seconds(static_cast<double>(i) / rate_qps);
    Clock::time_point now = tick();
    while (now < t0 + offset + paused) now = tick();
    const Clock::time_point due = t0 + offset + paused;
    phase.generator_lag_ms.push_back(MsSince(due, now));
    Request* r = phase.Next();
    r->start = due;
    auto admission = loop.Submit(
        "bench", phase.QueryOf(r),
        [r](ir2::StatusOr<std::vector<ir2::QueryResult>> res,
            const ir2::QueryStats& stats) {
          r->end = Clock::now();
          Record(r, res, stats);
        });
    last = Clock::now();
    phase.submit_us.push_back(MsSince(now, last) * 1000.0);
    if (admission.outcome !=
        ir2::serving::ServerLoop::Admission::Outcome::kAdmitted) {
      r->shed = true;
    }
  }
  phase.paused_ms = std::chrono::duration<double, std::milli>(paused).count();
  phase.seconds = MsSince(t0, last) / 1000.0;
  loop.Drain();
}

using Send = std::function<void(Phase&, Request*)>;

// One closed-loop client calling `send` back to back for `seconds`, then on
// until the number of queries sent is a multiple of `cycle`; the phase's
// window runs from the first send to the last completion.
void RunClient(const Send& send, Phase& phase, double seconds,
               size_t cycle = 1) {
  const Clock::time_point start = Clock::now();
  phase.deadline = start + Seconds(seconds);
  Clock::time_point last = start;
  while (Clock::now() < phase.deadline || phase.used % cycle != 0) {
    Request* r = phase.Next();
    if (r == nullptr) break;
    r->start = Clock::now();
    send(phase, r);
    last = r->end;
  }
  phase.seconds = MsSince(start, last) / 1000.0;
}

// ---- Output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// A latency percentile that lands on a shed or failed request (infinite)
// prints as `missed_ms`, the length of the window it was sent in.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics, double missed_ms = 0) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v =
        std::isfinite(metrics[i].value) ? metrics[i].value : missed_ms;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string List(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), " %.4g", x);
    out += buf;
  }
  return out;
}

// The host record printed with every result.
void PrintHost(Workload w, Tier& tier, const Phase& sample) {
  std::printf("host: nproc=%u workers=%zu (generator pinned to its own CPU) "
              "build_type=%s simd=%s\n",
              NumCpus(), w == Workload::kColdFile ? size_t{0} : Workers(),
              PERFBENCH_BUILD_TYPE,
              ir2::simd::LevelName(ir2::simd::ActiveLevel()));
  uint64_t structure_bytes = 0;
  uint64_t largest_structure_blocks = 0;
  std::string direct_io = "n/a (memory devices)";
  size_t pool_blocks = 0;
  auto account = [&](ir2::SpatialKeywordDatabase& db) {
    structure_bytes += StructureBytes(db);
    pool_blocks = db.options().pool_blocks;
    for (uint64_t b : {db.ObjectFileBytes(), db.RTreeBytes(),
                       db.Ir2TreeBytes(), db.Mir2TreeBytes(), db.KcTreeBytes(),
                       db.IioBytes()}) {
      largest_structure_blocks = std::max<uint64_t>(
          largest_structure_blocks, b / ir2::kDefaultBlockSize);
    }
  };
  if (tier.db != nullptr) {
    account(*tier.db);
    ir2::BlockDevice* device = tier.db->object_store().device();
    if (auto* pool = dynamic_cast<ir2::BufferPool*>(device)) {
      device = pool->device();
    }
    auto* file = dynamic_cast<ir2::FileBlockDevice*>(device);
    direct_io = file == nullptr ? "not a file device"
                : file->using_direct_io()
                    ? "true (O_DIRECT requested and in effect)"
                    : "false (O_DIRECT requested, filesystem refused)";
  } else {
    for (size_t s = 0; s < tier.sharded->num_shards(); ++s) {
      account(*tier.sharded->shard(s));
    }
  }
  std::printf(
      "host: data=%s objects=%zu user_bytes=%llu structure_bytes=%llu "
      "direct_io=%s\n",
      DatasetConfig(w).name_prefix.c_str(), tier.objects.size(),
      static_cast<unsigned long long>(UserBytes(tier.objects)),
      static_cast<unsigned long long>(structure_bytes), direct_io.c_str());
  std::printf(
      "host: caches: buffer pool %zu blocks per structure vs largest "
      "structure %llu blocks",
      pool_blocks, static_cast<unsigned long long>(largest_structure_blocks));
  if (tier.sharded != nullptr) {
    std::set<std::vector<std::string>> sets;
    for (const ir2::DistanceFirstQuery& q : sample.queries) {
      sets.insert(q.keywords);
    }
    std::printf("; result cache %zu entries vs %zu distinct keyword sets "
                "in %zu queries of the stream",
                tier.sharded->result_cache()->options().max_entries,
                sets.size(), sample.queries.size());
  }
  std::printf("\n");
}

// ---- Per-layer counters ----

// The library's CoreMetrics counters, read as one snapshot.
struct Counters {
  enum {
    kPoolHits,
    kPoolMisses,
    kNodeDecodes,
    kHeapPops,
    kNodesExpanded,
    kSignatureTests,
    kSignaturePrunes,
    kKcTests,
    kKcBitmapPrunes,
    kKcSignaturePrunes,
    kVerified,
    kFalsePositives,
    kChosenRTree,
    kChosenIio,
    kChosenIr2,
    kChosenMir2,
    kChosenKc,
    kMispredict,
    kCount
  };
  std::array<uint64_t, kCount> v{};

  static Counters Now() {
    const ir2::obs::CoreMetrics& m = ir2::obs::DefaultMetrics();
    Counters c;
    c.v = {m.pool_hits->Value(),
           m.pool_misses->Value(),
           m.node_decodes->Value(),
           m.nn_heap_pops->Value(),
           m.nn_nodes_expanded->Value(),
           m.signature_tests->Value(),
           m.signature_prunes->Value(),
           m.kctree_bitmap_tests->Value(),
           m.kctree_bitmap_prunes->Value(),
           m.kctree_signature_prunes->Value(),
           m.objects_verified->Value(),
           m.verification_false_positives->Value(),
           m.plan_chosen_rtree->Value(),
           m.plan_chosen_iio->Value(),
           m.plan_chosen_ir2->Value(),
           m.plan_chosen_mir2->Value(),
           m.plan_chosen_kctree->Value(),
           m.plan_mispredict->Value()};
    return c;
  }
  Counters operator-(const Counters& o) const {
    Counters d;
    for (int i = 0; i < kCount; ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }
  double operator[](int i) const { return static_cast<double>(v[i]); }
};

ir2::IoSchedulerStats SchedulerStats(ir2::SpatialKeywordDatabase* db) {
  ir2::IoSchedulerStats sum;
  if (db == nullptr) return sum;
  for (ir2::IoScheduler* s :
       {db->object_scheduler(), db->rtree_scheduler(), db->ir2_scheduler(),
        db->mir2_scheduler(), db->kc_scheduler(), db->iio_scheduler()}) {
    if (s == nullptr) continue;
    const ir2::IoSchedulerStats st = s->stats();
    sum.requested += st.requested;
    sum.deduped += st.deduped;
    sum.runs += st.runs;
    sum.blocks_fetched += st.blocks_fetched;
  }
  return sum;
}

std::vector<uint64_t> QueueWaitBuckets() {
  const ir2::obs::Histogram* h =
      ir2::serving::DefaultServingMetrics().server_queue_wait_ms;
  std::vector<uint64_t> b(ir2::obs::Histogram::kNumBuckets);
  for (int i = 0; i < ir2::obs::Histogram::kNumBuckets; ++i) {
    b[i] = h->BucketCount(i);
  }
  return b;
}

// ---- Traced replay ----

// Span kind of the benchmark's own root span, after the library's.
constexpr int kRootKind = ir2::obs::kNumSpanKinds;

constexpr int kKinds = kRootKind + 1;

struct TraceTotals {
  double self_us[kKinds] = {};
  double traced_us = 0;
  uint64_t traced = 0;
  uint64_t dropped = 0;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  // Per traced request: self time per span kind, its length last.
  std::vector<std::array<double, kKinds + 1>> requests;
  std::string file_lines;  // JSON lines of the first kTraceFileRequests.
};

const char* KindName(int kind) {
  return kind == kRootKind
             ? "request"
             : ir2::obs::SpanKindName(static_cast<ir2::obs::SpanKind>(kind));
}

// Attributes one traced request's spans under its root [start, end].
void Attribute(const ir2::obs::Tracer& tracer, uint64_t start_us,
               uint64_t end_us, TraceTotals* totals) {
  const std::vector<ir2::obs::TraceEvent> events = tracer.Events();
  totals->dropped += tracer.dropped();
  std::vector<Span> spans;
  spans.push_back(Span{kRootKind, start_us, end_us, 0, -1});
  uint32_t primary = 0;  // The thread that ran the query.
  for (const ir2::obs::TraceEvent& e : events) {
    if (e.dur_us == 0) continue;  // Instants carry no time.
    if (primary == 0 && (e.kind == ir2::obs::SpanKind::kShardFanout ||
                         e.kind == ir2::obs::SpanKind::kQuery)) {
      primary = e.tid;
    }
    spans.push_back(Span{static_cast<int>(e.kind), e.ts_us,
                         e.ts_us + e.dur_us, e.tid, -1});
  }
  const std::vector<double> self = ComputeSelfTimes(spans, primary);
  std::array<double, kKinds + 1> request{};
  for (size_t i = 0; i < spans.size(); ++i) {
    totals->self_us[spans[i].kind] += self[i];
    request[spans[i].kind] += self[i];
  }
  request[kKinds] = static_cast<double>(end_us - start_us);
  totals->requests.push_back(request);
  if (totals->traced < kTraceFileRequests) {
    char line[256];
    for (size_t i = 0; i < spans.size(); ++i) {
      std::snprintf(line, sizeof(line),
                    "{\"request\": %llu, \"span\": %zu, \"name\": \"%s\", "
                    "\"start_us\": %llu, \"end_us\": %llu, \"parent\": %d, "
                    "\"tid\": %u}\n",
                    static_cast<unsigned long long>(totals->traced), i,
                    KindName(spans[i].kind),
                    static_cast<unsigned long long>(spans[i].start_us),
                    static_cast<unsigned long long>(spans[i].end_us),
                    spans[i].parent, spans[i].tid);
      totals->file_lines += line;
    }
  }
  totals->traced_us += static_cast<double>(end_us - start_us);
  totals->traced_ms.push_back(static_cast<double>(end_us - start_us) / 1000.0);
  ++totals->traced;
}

// Replays the phase with one client, alternating blocks of `block` untraced
// and `block` traced requests, so both halves see the same mix of queries
// and the same cache state. Each traced request drains the tracer, so no
// span is dropped.
void ReplayInterleaved(const Send& send, Phase& phase, double seconds,
                       size_t block, TraceTotals* totals) {
  ir2::obs::Tracer tracer(1 << 20);
  phase.seconds = seconds;
  phase.deadline = Clock::now() + Seconds(seconds);
  for (uint64_t i = 0; Clock::now() < phase.deadline || i % (2 * block) != 0;
       ++i) {
    Request* r = phase.Next();
    if (r == nullptr) break;
    if ((i / block) % 2 == 0) {
      r->start = Clock::now();
      send(phase, r);
      totals->untraced_ms.push_back(MsSince(r->start, r->end));
      continue;
    }
    tracer.Clear();
    ir2::obs::ScopedTracer scope(&tracer);
    const uint64_t start_us = tracer.NowUs();
    r->start = Clock::now();
    send(phase, r);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        r->end - r->start)
                        .count();
    Attribute(tracer, start_us,
              start_us + static_cast<uint64_t>(std::max<int64_t>(0, us)),
              totals);
  }
}

// ---- Runs ----

struct Context {
  const Args& args;
  Tier& tier;
  const Oracle& oracle;
  const QueryMaker& maker;
  Workload w;
  bool serving;
  double warmup_s;

  // Slots for a closed loop of `seconds` at the workload's highest rate,
  // in whole kCycle-query cycles.
  size_t ClosedSize(double seconds) const {
    const size_t n = static_cast<size_t>(MaxQps(w) * seconds) + 16;
    return (n / kCycle + 1) * kCycle;
  }
  std::unique_ptr<Phase> Make(uint64_t id, size_t n) const {
    return MakePhase(maker, args.seed, id, n);
  }
  // One direct query on the cold_file database.
  void ColdQuery(Phase& phase, Request* r) const {
    ir2::QueryStats stats;
    auto res = tier.db->Query(phase.QueryOf(r), ir2::Algorithm::kAuto, &stats);
    r->end = Clock::now();
    Record(r, res, stats);
  }
  // Closed-loop warm-up, unmeasured but checked; prints the host record.
  void WarmUp(uint64_t id, Tally* tally) const {
    std::unique_ptr<Phase> warm = Make(id, ClosedSize(warmup_s));
    PrintHost(w, tier, *warm);
    if (serving) {
      RunClosed(*tier.loop, *warm, Workers(), warmup_s);
    } else {
      RunClient([this](Phase& p, Request* r) { ColdQuery(p, r); }, *warm,
                warmup_s);
    }
    tally->Add(*warm, CheckAnswers(oracle, *warm));
  }
};

// Runs `fn` and adds the host's load over it to `load`.
template <typename Fn>
void Watched(HostLoad* load, Fn&& fn) {
  const CpuSample before = SampleCpu();
  fn();
  load->Add(before, SampleCpu());
}

// Why a round is invalid (see kMaxStealFrac), or "" when it is valid.
std::string HostProblem(const HostLoad& load) {
  char buf[128];
  if (load.StealFrac() > kMaxStealFrac) {
    std::snprintf(buf, sizeof(buf), "steal %.1f%% > %.0f%%",
                  100.0 * load.StealFrac(), 100.0 * kMaxStealFrac);
    return buf;
  }
  return "";
}

std::string OpenLoopProblem(const Phase& open, const Summary& lag) {
  char buf[128];
  if (lag.p50 > kMaxGeneratorLagP50Ms) {
    std::snprintf(buf, sizeof(buf), "generator lag p50 %.3f ms > %.1f ms",
                  lag.p50, kMaxGeneratorLagP50Ms);
    return buf;
  }
  if (open.paused_ms > kMaxPausedShare * 1000.0 * open.seconds) {
    std::snprintf(buf, sizeof(buf), "generator paused %.1f ms of %.0f ms",
                  open.paused_ms, 1000.0 * open.seconds);
    return buf;
  }
  return "";
}

std::string LoadText(const HostLoad& load) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "steal %.2f%%, other processes %.2f%%",
                100.0 * load.StealFrac(), 100.0 * load.ForeignFrac());
  return buf;
}

int RunEndToEnd(const Context& c, double setup_s) {
  const IdlePollers pollers(PollerCpus(c.serving));
  Tally tally;
  c.WarmUp(0, &tally);

  // Serving: each round is a closed-loop window (throughput) then an
  // open-loop window (latency). cold_file: each round is one client's
  // closed loop over whole cycles of kCycle queries, so every round has
  // the same share of mid-selectivity pairs. Each round's throughput and
  // latency percentiles are exact from its raw samples; the run reports their
  // medians over the valid rounds, so a host stall moves one round, not the
  // result. Answers are checked between windows, off the clock. A round
  // that is invalid (see kMaxStealFrac) is checked, counted in `attempted`,
  // kept, and measured again.
  struct Round {
    double qps = 0, p50 = 0, p90 = 0, steal = 0;
    bool valid = false;
    std::vector<double> latency, lag;
    Tally measured;
  };
  const int rounds = c.serving ? kServeRounds : kColdRounds;
  const double measure_s = 0.9 * c.args.seconds;
  const double window_s = measure_s / (c.serving ? 2 * rounds : rounds);
  const Clock::time_point give_up =
      Clock::now() + Seconds(kRetryBudget * measure_s);
  const Send cold_send = [&c](Phase& p, Request* r) { c.ColdQuery(p, r); };
  std::vector<Round> tried;
  HostLoad load_valid, load_all;
  int valid = 0;
  std::string last_problem;
  if (c.serving) {
    std::printf("rounds: %d x (%.2f s closed loop, %zu outstanding + "
                "%.2f s open loop at %.0f q/s)\n",
                rounds, window_s, Workers(), window_s, kRateQps);
  } else {
    std::printf("rounds: %d x %.2f s closed loop, one client, whole cycles "
                "of %zu queries (1 mid-selectivity pair each)\n",
                rounds, window_s, kCycle);
  }
  while (valid < rounds && Clock::now() < give_up) {
    const uint64_t id = 1 + 2 * static_cast<uint64_t>(tried.size());
    Round& round = tried.emplace_back();
    HostLoad load, closed_load, open_load;
    std::unique_ptr<Phase> closed = c.Make(id, c.ClosedSize(window_s));
    Watched(&closed_load, [&] {
      if (c.serving) {
        RunClosed(*c.tier.loop, *closed, Workers(), window_s);
      } else {
        RunClient(cold_send, *closed, window_s, kCycle);
      }
    });
    const uint64_t closed_mismatches = CheckAnswers(c.oracle, *closed);
    tally.Add(*closed, closed_mismatches);
    round.measured.Add(*closed, closed_mismatches);
    uint64_t closed_good = 0;
    for (size_t j = 0; j < closed->used; ++j) {
      const Request& r = closed->requests[j];
      if (r.correct && (!c.serving || r.end <= closed->deadline)) {
        ++closed_good;
      }
    }
    round.qps = static_cast<double>(closed_good) / closed->seconds;
    std::string problem = closed->exhausted ? "a phase ran out of queries"
                                            : HostProblem(closed_load);

    std::unique_ptr<Phase> open;
    Summary round_lag;
    if (c.serving) {
      open = c.Make(id + 1, static_cast<size_t>(kRateQps * window_s));
      Watched(&open_load, [&] { RunOpen(*c.tier.loop, *open, kRateQps); });
      const uint64_t open_mismatches = CheckAnswers(c.oracle, *open);
      tally.Add(*open, open_mismatches);
      round.measured.Add(*open, open_mismatches);
      round.lag = open->generator_lag_ms;
      round_lag = Summarize(round.lag);
      if (problem.empty()) problem = HostProblem(open_load);
      if (problem.empty()) problem = OpenLoopProblem(*open, round_lag);
    }
    const Phase& sampled = c.serving ? *open : *closed;
    for (size_t j = 0; j < sampled.used; ++j) {
      round.latency.push_back(sampled.requests[j].LatencyMs());
    }
    const Summary s = Summarize(round.latency);
    round.p50 = s.p50;
    round.p90 = s.p90;
    std::printf("  round %zu: %.1f q/s, p50 %.4f ms, p90 %.4f ms",
                tried.size(), round.qps, s.p50, s.p90);
    if (c.serving) {
      std::printf(", generator lag p50 %.4f ms, paused %.2f ms",
                  round_lag.p50, open->paused_ms);
    }
    load.Add(closed_load);
    load.Add(open_load);
    round.steal = load.StealFrac();
    std::printf(", %s: %s\n", LoadText(load).c_str(),
                problem.empty() ? "valid" : ("INVALID, " + problem).c_str());
    load_all.Add(load);
    if (!problem.empty()) {
      last_problem = problem;
      continue;
    }
    round.valid = true;
    ++valid;
    load_valid.Add(load);
  }
  Log("measured and checked");
  std::printf("host: load over all %zu rounds: %s; over the %d valid: %s\n",
              tried.size(), LoadText(load_all).c_str(), valid,
              LoadText(load_valid).c_str());
  std::printf("error_rate: %.6f (%llu shed + %llu non-OK + %llu oracle "
              "mismatches of %llu attempted)\n",
              Ratio(static_cast<double>(tally.failed()),
                    static_cast<double>(tally.attempted)),
              static_cast<unsigned long long>(tally.shed),
              static_cast<unsigned long long>(tally.errors),
              static_cast<unsigned long long>(tally.mismatches),
              static_cast<unsigned long long>(tally.attempted));

  // The rounds reported: the valid ones, made up to kMinValidShare of the
  // planned rounds with the invalid rounds of least steal.
  std::vector<const Round*> used;
  std::vector<const Round*> spare;
  for (const Round& r : tried) (r.valid ? used : spare).push_back(&r);
  std::stable_sort(spare.begin(), spare.end(),
                   [](const Round* a, const Round* b) {
                     return a->steal < b->steal;
                   });
  const size_t min_used =
      static_cast<size_t>(std::ceil(kMinValidShare * rounds));
  if (used.size() < min_used) {
    const size_t added = std::min(min_used - used.size(), spare.size());
    used.insert(used.end(), spare.begin(), spare.begin() + added);
    std::printf("CONTENDED RUN: %d of %d rounds valid within %.0f s (last: "
                "%s); reporting them with the %zu invalid rounds of least "
                "steal\n",
                valid, rounds, kRetryBudget * measure_s, last_problem.c_str(),
                added);
  }
  std::vector<double> round_qps, round_p50, round_p90, latency, mid_latency,
      lag;
  Tally measured;
  for (const Round* r : used) {
    round_qps.push_back(r->qps);
    round_p50.push_back(r->p50);
    round_p90.push_back(r->p90);
    measured.served += r->measured.served;
    measured.sim_ms += r->measured.sim_ms;
    latency.insert(latency.end(), r->latency.begin(), r->latency.end());
    for (size_t j = kCycle - 1; !c.serving && j < r->latency.size();
         j += kCycle) {
      mid_latency.push_back(r->latency[j]);
    }
    lag.insert(lag.end(), r->lag.begin(), r->lag.end());
  }

  double stored_bytes = static_cast<double>(c.tier.saved_bytes);
  if (c.serving) {
    stored_bytes = 0;
    for (size_t s = 0; s < c.tier.sharded->num_shards(); ++s) {
      stored_bytes +=
          static_cast<double>(StructureBytes(*c.tier.sharded->shard(s)));
    }
  }
  const Summary lat = Summarize(latency);
  std::printf("latency (all %s samples of reported rounds): %s "
              "p90=%.4fms\n",
              c.serving ? "open-loop" : "closed-loop",
              FormatSummary(lat, "ms").c_str(), lat.p90);
  std::printf("latency p50 per reported round (ms):%s\n",
              List(round_p50).c_str());
  std::printf("latency p90 per reported round (ms):%s\n",
              List(round_p90).c_str());
  if (!c.serving) {
    std::printf("of which mid-selectivity pairs: %s\n",
                FormatSummary(Summarize(mid_latency), "ms").c_str());
  }
  std::printf("throughput per reported round (1/s):%s\n",
              List(round_qps).c_str());
  if (c.serving) {
    std::printf("generator lag: %s\n",
                FormatSummary(Summarize(lag), "ms").c_str());
  }
  const std::vector<Metric> metrics = {
      {"latency_p50_ms", Median(round_p50), "ms"},
      {"latency_p90_ms", Median(round_p90), "ms"},
      {"throughput_qps", Median(round_qps), "1/s"},
      {"sim_disk_ms_per_query",
       Ratio(measured.sim_ms, static_cast<double>(measured.served)), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"bytes_per_user_byte",
       stored_bytes / static_cast<double>(UserBytes(c.tier.objects)), "ratio"},
      {"setup_s", setup_s, "s"},
  };
  PrintResult(tally.mismatches == 0 && tally.errors == 0, tally.attempted,
              tally.failed(), metrics, 1000.0 * window_s);
  return 0;
}

int RunTraced(const Context& c) {
  const IdlePollers pollers(PollerCpus(c.serving));
  const double phase_s = (c.serving ? 0.3 : 0.9) * c.args.seconds;
  Tally tally;
  c.WarmUp(100, &tally);
  std::mutex mu;
  std::condition_variable cv;
  // One request through the user-facing path: Submit -> callback.
  const Send serve_send = [&](Phase& phase, Request* r) {
    bool done = false;
    auto admission = c.tier.loop->Submit(
        "bench", phase.QueryOf(r),
        [&, r](ir2::StatusOr<std::vector<ir2::QueryResult>> res,
               const ir2::QueryStats& stats) {
          r->end = Clock::now();
          Record(r, res, stats);
          std::lock_guard<std::mutex> lock(mu);
          done = true;
          cv.notify_one();
        });
    if (admission.outcome !=
        ir2::serving::ServerLoop::Admission::Outcome::kAdmitted) {
      r->shed = true;
      r->end = Clock::now();
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  };
  const Send direct_send = [&](Phase& phase, Request* r) {
    ir2::QueryStats stats;
    auto res = c.tier.sharded->Query(phase.QueryOf(r), ir2::Algorithm::kAuto,
                                     &stats);
    r->end = Clock::now();
    Record(r, res, stats);
  };
  const Send cold_send = [&](Phase& phase, Request* r) {
    c.ColdQuery(phase, r);
  };
  // cold_file replays alternate whole cycles, so both halves get the same
  // share of mid-selectivity pairs.
  const size_t block = c.serving ? 1 : kCycle;

  // 1. Serving: the untraced open loop, measured again while invalid (see
  //    kMaxStealFrac); when none is valid in time, the one of least steal
  //    is reported, with a CONTENDED RUN line. Submit cost, queue wait
  //    (delta of the bucketed ir2_server_queue_wait_ms histogram),
  //    shedding, generator lateness, and the latency p50 that the traced
  //    parts reconcile with.
  Summary submit, lag, queue, open_latency;
  double shed_frac = 0;
  HostLoad load;
  if (c.serving) {
    const Clock::time_point give_up =
        Clock::now() + Seconds(kRetryBudget * phase_s);
    std::string problem = "not run";
    double kept_steal = kInf;
    for (uint64_t id = 101; !problem.empty() && Clock::now() < give_up;
         id += 1000) {
      std::unique_ptr<Phase> open =
          c.Make(id, static_cast<size_t>(kRateQps * phase_s));
      HostLoad open_load;
      const std::vector<uint64_t> before = QueueWaitBuckets();
      Watched(&open_load, [&] { RunOpen(*c.tier.loop, *open, kRateQps); });
      std::vector<uint64_t> delta = QueueWaitBuckets();
      for (size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
      tally.Add(*open, CheckAnswers(c.oracle, *open));
      const Summary open_lag = Summarize(open->generator_lag_ms);
      problem = HostProblem(open_load);
      if (problem.empty()) problem = OpenLoopProblem(*open, open_lag);
      std::printf("open loop at %.0f q/s: %s: %s\n", kRateQps,
                  LoadText(open_load).c_str(),
                  problem.empty() ? "valid" : ("INVALID, " + problem).c_str());
      if (!problem.empty() && open_load.StealFrac() >= kept_steal) continue;
      kept_steal = open_load.StealFrac();
      load = open_load;
      lag = open_lag;
      queue.p50 = ir2::obs::Histogram::PercentileFromBuckets(delta, 0.5);
      queue.p99 = ir2::obs::Histogram::PercentileFromBuckets(delta, 0.99);
      submit = Summarize(open->submit_us);
      std::vector<double> latency;
      uint64_t shed = 0;
      for (size_t i = 0; i < open->used; ++i) {
        shed += open->requests[i].shed;
        latency.push_back(open->requests[i].LatencyMs());
      }
      open_latency = Summarize(latency);
      shed_frac = Ratio(static_cast<double>(shed),
                        static_cast<double>(open->used));
    }
    if (!problem.empty()) {
      std::printf("CONTENDED RUN: no valid open loop within %.0f s (last: "
                  "%s); reporting the one of least steal\n",
                  kRetryBudget * phase_s, problem.c_str());
    }
  }

  // 2. The counted phase. Serving calls ShardedDatabase::Query directly from
  //    one client (sharded query time, cache-hit cost, cache stats);
  //    cold_file's interleaved replay is its own counted phase, since
  //    tracing changes no count.
  TraceTotals totals;
  std::unique_ptr<Phase> counted = c.Make(102, c.ClosedSize(phase_s));
  const Counters counters_before = Counters::Now();
  const ir2::IoSchedulerStats sched_before = SchedulerStats(c.tier.db.get());
  ir2::serving::ResultCache::Stats cache_before, cache_after;
  Watched(&load, [&] {
    if (c.serving) {
      cache_before = c.tier.sharded->result_cache()->GetStats();
      RunClient(direct_send, *counted, phase_s);
      cache_after = c.tier.sharded->result_cache()->GetStats();
    } else {
      ReplayInterleaved(cold_send, *counted, phase_s, block, &totals);
    }
  });
  const Counters d = Counters::Now() - counters_before;
  const ir2::IoSchedulerStats sched_after = SchedulerStats(c.tier.db.get());
  const double nq = static_cast<double>(std::max<size_t>(1, counted->used));
  std::vector<double> direct_ms, hit_us;
  Request sum;
  for (size_t i = 0; i < counted->used; ++i) {
    const Request& r = counted->requests[i];
    sum.random_reads += r.random_reads;
    sum.sequential_reads += r.sequential_reads;
    sum.shards_queried += r.shards_queried;
    sum.shards_pruned += r.shards_pruned;
    if (c.serving) {
      direct_ms.push_back(MsSince(r.start, r.end));
      if (r.cache_hit) hit_us.push_back(MsSince(r.start, r.end) * 1000.0);
    }
  }
  tally.Add(*counted, CheckAnswers(c.oracle, *counted));
  counted.reset();

  // 3. Serving: the interleaved untraced/traced replay through Submit ->
  //    callback, one request in flight.
  if (c.serving) {
    std::unique_ptr<Phase> replay = c.Make(103, c.ClosedSize(phase_s));
    Watched(&load, [&] {
      ReplayInterleaved(serve_send, *replay, phase_s, block, &totals);
    });
    tally.Add(*replay, CheckAnswers(c.oracle, *replay));
  }

  // 4. QueryPlanner::Plan on every shard for 2,000 queries.
  std::vector<double> plan_us;
  {
    std::vector<ir2::SpatialKeywordDatabase*> dbs;
    if (c.serving) {
      for (size_t s = 0; s < c.tier.sharded->num_shards(); ++s) {
        dbs.push_back(c.tier.sharded->shard(s));
      }
    } else {
      dbs.push_back(c.tier.db.get());
    }
    for (ir2::DistanceFirstQuery q :
         c.maker.Make(MixSeed(c.args.seed, 104), 2000)) {
      q.keywords = dbs[0]->tokenizer().NormalizeKeywords(q.keywords);
      for (ir2::SpatialKeywordDatabase* db : dbs) {
        const Clock::time_point t = Clock::now();
        const ir2::QueryPlan plan = db->planner()->Plan(q);
        plan_us.push_back(plan.has_choice ? MsSince(t, Clock::now()) * 1000.0
                                          : kInf);
      }
    }
  }
  Log("measured and checked");

  // Self times per traced request.
  using K = ir2::obs::SpanKind;
  const double nt = static_cast<double>(std::max<uint64_t>(1, totals.traced));
  auto self_ms = [&](K k) {
    return totals.self_us[static_cast<int>(k)] / 1000.0 / nt;
  };
  const double traced_ms = totals.traced_us / 1000.0 / nt;
  const Summary untraced = Summarize(totals.untraced_ms);
  const Summary traced = Summarize(totals.traced_ms);
  const double overhead = Ratio(traced.mean, untraced.mean) - 1.0;

  // Reconciliation with the untraced latency p50. The traced requests
  // ranked 40%-60% by length, averaged, give the parts of a median traced
  // request; their sum is compared with the untraced p50 of the measure
  // latency_p50_ms reports (serving: the open loop above; cold_file: the
  // untraced half of the replay).
  std::vector<std::array<double, kKinds + 1>>& reqs = totals.requests;
  std::sort(reqs.begin(), reqs.end(),
            [](const auto& a, const auto& b) { return a[kKinds] < b[kKinds]; });
  const size_t lo = reqs.size() * 2 / 5;
  const size_t hi =
      std::min(reqs.size(), std::max(lo + 1, reqs.size() * 3 / 5));
  std::array<double, kKinds + 1> median_us{};
  for (size_t i = lo; i < hi; ++i) {
    for (int k = 0; k <= kKinds; ++k) median_us[k] += reqs[i][k];
  }
  for (double& v : median_us) {
    v /= static_cast<double>(std::max<size_t>(1, hi - lo));
  }
  const double reference_p50 = c.serving ? open_latency.p50 : untraced.p50;

  std::printf("traced replay: %llu traced / %zu untraced requests, "
              "one client\n",
              static_cast<unsigned long long>(totals.traced),
              totals.untraced_ms.size());
  std::printf("  untraced request: %s\n",
              FormatSummary(untraced, "ms").c_str());
  std::printf("  traced request:   %s\n", FormatSummary(traced, "ms").c_str());
  std::printf("  layer self times + unattributed, per traced request:\n");
  std::printf("    %-18s %12s %14s\n", "span", "mean (ms)", "median (ms)");
  double parts = 0, median_parts = 0;
  for (int k = 0; k < kKinds; ++k) {
    const double ms = totals.self_us[k] / 1000.0 / nt;
    parts += ms;
    median_parts += median_us[k] / 1000.0;
    if (ms > 0) {
      std::printf("    %-18s %12.4f %14.4f  %s\n", KindName(k), ms,
                  median_us[k] / 1000.0,
                  k != kRootKind ? ""
                  : c.serving    ? "(unattributed: admission, queue hand-off, "
                                   "cache probe, planning, callback)"
                                 : "(unattributed: planning, cache drop)");
    }
  }
  const double reconcile_gap = Ratio(median_parts, reference_p50) - 1.0;
  std::printf("    %-18s %12.4f %14.4f  (tracing overhead on the mean "
              "%.1f%%)\n",
              "sum", parts, median_parts, overhead * 100.0);
  std::printf("  reconciliation: median traced parts %.4f ms vs untraced "
              "latency p50 %.4f ms (%s, the measure of latency_p50_ms): "
              "%+.1f%%, %s (tolerance %.0f%%)\n",
              median_parts, reference_p50,
              c.serving ? "open loop" : "single client", reconcile_gap * 100.0,
              std::fabs(reconcile_gap) <= kReconcileTolerance
                  ? "reconciled"
                  : "NOT RECONCILED",
              kReconcileTolerance * 100.0);
  if (c.serving) {
    std::printf("  untraced single-client request p50 %.4f ms; open loop at "
                "%.0f q/s: latency %s, generator lag %s\n",
                untraced.p50, kRateQps,
                FormatSummary(open_latency, "ms").c_str(),
                FormatSummary(lag, "ms").c_str());
  }
  std::printf("host: load over the measured phases: %s\n",
              LoadText(load).c_str());
  std::printf("error_rate: %.6f (%llu failed of %llu attempted, "
              "%llu oracle mismatches)\n",
              Ratio(static_cast<double>(tally.failed()),
                    static_cast<double>(tally.attempted)),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.mismatches));
  {
    const std::string path = c.args.out_dir + "/trace-" + WorkloadName(c.w) +
                             "-seed" + std::to_string(c.args.seed) + ".jsonl";
    std::ofstream out(path);
    out << totals.file_lines;
    std::printf("trace: spans of the first %zu traced requests in %s\n",
                std::min<size_t>(kTraceFileRequests, totals.traced),
                path.c_str());
  }

  // Entry containment tests of every signature tree: IR2/MIR2 signatures
  // and KC-Tree bitmap-plus-signature payloads.
  const double sig_tests = d[Counters::kSignatureTests] + d[Counters::kKcTests];
  const double sig_prunes = d[Counters::kSignaturePrunes] +
                            d[Counters::kKcBitmapPrunes] +
                            d[Counters::kKcSignaturePrunes];
  const double verified = d[Counters::kVerified];
  const double chosen = d[Counters::kChosenRTree] + d[Counters::kChosenIio] +
                        d[Counters::kChosenIr2] + d[Counters::kChosenMir2] +
                        d[Counters::kChosenKc];
  const double cache_hits =
      static_cast<double>(cache_after.hits - cache_before.hits);
  const double cache_near =
      static_cast<double>(cache_after.near_hits - cache_before.near_hits);
  const double cache_misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  const double legs =
      static_cast<double>(sum.shards_queried + sum.shards_pruned);
  const Summary shard_query = Summarize(direct_ms);
  const std::vector<Metric> metrics = {
      {"server_loop.submit_us_p50", submit.p50, "us"},
      {"server_loop.queue_wait_ms_p50", queue.p50, "ms"},
      {"server_loop.queue_wait_ms_p99", queue.p99, "ms"},
      {"server_loop.shed_frac", shed_frac, "ratio"},
      {"result_cache.hit_ratio",
       Ratio(cache_hits + cache_near, cache_hits + cache_near + cache_misses),
       "ratio"},
      {"result_cache.near_hit_share",
       Ratio(cache_near, cache_hits + cache_near), "ratio"},
      {"result_cache.hit_us_p50", Summarize(hit_us).p50, "us"},
      {"sharded_database.query_ms_p50", shard_query.p50, "ms"},
      {"sharded_database.query_ms_p99", shard_query.p99, "ms"},
      {"sharded_database.legs_per_query",
       static_cast<double>(sum.shards_queried) / nq, "count"},
      {"sharded_database.pruned_leg_frac",
       Ratio(static_cast<double>(sum.shards_pruned), legs), "ratio"},
      {"sharded_database.fanout_self_ms_per_query",
       self_ms(K::kShardFanout) + self_ms(K::kShardMerge), "ms"},
      {"planner.plan_us_p50", Summarize(plan_us).p50, "us"},
      {"planner.chosen_share.rtree", Ratio(d[Counters::kChosenRTree], chosen),
       "ratio"},
      {"planner.chosen_share.iio", Ratio(d[Counters::kChosenIio], chosen),
       "ratio"},
      {"planner.chosen_share.ir2", Ratio(d[Counters::kChosenIr2], chosen),
       "ratio"},
      {"planner.chosen_share.mir2", Ratio(d[Counters::kChosenMir2], chosen),
       "ratio"},
      {"planner.chosen_share.kctree", Ratio(d[Counters::kChosenKc], chosen),
       "ratio"},
      {"planner.mispredict_ratio", Ratio(d[Counters::kMispredict], chosen),
       "ratio"},
      {"core.query_self_ms_per_query", self_ms(K::kQuery), "ms"},
      {"rtree.nodes_expanded_per_query", d[Counters::kNodesExpanded] / nq,
       "count"},
      {"rtree.heap_pops_per_query", d[Counters::kHeapPops] / nq, "count"},
      {"rtree.node_decodes_per_query", d[Counters::kNodeDecodes] / nq,
       "count"},
      {"rtree.node_expand_self_ms_per_query", self_ms(K::kNodeExpand), "ms"},
      {"text.signature_tests_per_query", sig_tests / nq, "count"},
      {"text.signature_prune_ratio", Ratio(sig_prunes, sig_tests), "ratio"},
      {"text.signature_test_self_ms_per_query", self_ms(K::kSignatureTest),
       "ms"},
      {"text.posting_list_ms_per_query", self_ms(K::kPostingListRead), "ms"},
      {"kc_tree.bitmap_prune_ratio",
       Ratio(d[Counters::kKcBitmapPrunes], d[Counters::kKcTests]), "ratio"},
      {"object_store.objects_verified_per_query", verified / nq, "count"},
      {"object_store.useful_verify_ratio",
       verified == 0 ? 0.0
                     : 1.0 - Ratio(d[Counters::kFalsePositives], verified),
       "ratio"},
      {"object_store.verify_self_ms_per_query", self_ms(K::kObjectVerify),
       "ms"},
      {"buffer_pool.hit_ratio",
       Ratio(d[Counters::kPoolHits],
             d[Counters::kPoolHits] + d[Counters::kPoolMisses]),
       "ratio"},
      {"buffer_pool.misses_per_query", d[Counters::kPoolMisses] / nq, "count"},
      {"block_device.random_reads_per_query",
       static_cast<double>(sum.random_reads) / nq, "count"},
      {"block_device.sequential_reads_per_query",
       static_cast<double>(sum.sequential_reads) / nq, "count"},
      {"block_device.demand_io_wait_ms_per_query", self_ms(K::kDemandIoWait),
       "ms"},
      {"io_scheduler.blocks_fetched_per_query",
       static_cast<double>(sched_after.blocks_fetched -
                           sched_before.blocks_fetched) /
           nq,
       "count"},
      {"io_scheduler.runs_per_query",
       static_cast<double>(sched_after.runs - sched_before.runs) / nq,
       "count"},
      {"io_scheduler.dedup_ratio",
       Ratio(static_cast<double>(sched_after.deduped - sched_before.deduped),
             static_cast<double>(sched_after.requested -
                                 sched_before.requested)),
       "ratio"},
      {"io_scheduler.prefetch_ms_per_query", self_ms(K::kPrefetchComplete),
       "ms"},
      {"bench.unattributed_ms_per_query",
       totals.self_us[kRootKind] / 1000.0 / nt, "ms"},
      {"bench.traced_request_ms_per_query", traced_ms, "ms"},
      {"bench.untraced_request_ms_per_query", untraced.mean, "ms"},
      {"bench.reconcile_gap_frac", std::fabs(reconcile_gap), "ratio"},
      {"bench.generator_lag_ms_p99", c.serving ? lag.p99 : 0.0, "ms"},
      {"bench.tracing_overhead_frac", overhead, "ratio"},
      {"bench.trace_dropped_spans", static_cast<double>(totals.dropped),
       "count"},
  };
  PrintResult(tally.mismatches == 0 && tally.errors == 0, tally.attempted,
              tally.failed(), metrics);
  return 0;
}

// ---- Main ----

int Main(int argc, char** argv) {
  StartCpus();  // Before any thread is pinned.
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <serve_uniform|cold_file> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const Workload w = args.workload;
  std::filesystem::create_directories(args.out_dir);
  const std::string data_dir = args.out_dir + "/data-" + WorkloadName(w);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", WorkloadName(w),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Log("start");

  // Set-up, repeated; the last tier serves.
  std::vector<double> setup_s;
  std::unique_ptr<Tier> tier;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    tier.reset();
    std::filesystem::remove_all(data_dir);
    const Clock::time_point t = Clock::now();
    tier = SetUp(w, data_dir);
    setup_s.push_back(MsSince(t, Clock::now()) / 1000.0);
  }
  std::printf("setup_s: %zu set-ups:%s s, median %.3f s\n", setup_s.size(),
              List(setup_s).c_str(), Median(setup_s));
  // Off the clock.
  const Oracle oracle(tier->objects);
  const QueryMaker maker(w, tier->objects);
  Log("set up");

  const bool serving = w != Workload::kColdFile;
  const Context context{args,    *tier,   oracle, maker,
                        w,       serving, 0.1 * args.seconds};
  const int rc =
      args.trace ? RunTraced(context) : RunEndToEnd(context, Median(setup_s));
  tier.reset();
  std::filesystem::remove_all(data_dir);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
