#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Pieces of the repository benchmark that carry its correctness claims and
// are unit-tested on their own (perfbench_test.cc): exact percentiles, the
// brute-force answer oracle and its comparator, span self-time subtraction,
// and the seeded workload definitions. main.cc drives the library through
// its public API with these.

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "datagen/synthetic.h"
#include "storage/object_store.h"

namespace perfbench {

// ---- Exact percentiles from raw samples ----

// Nearest-rank percentile (the smallest sample with at least `q` of the
// samples at or below it) of an ascending-sorted vector; 0 when empty.
// Infinite samples (shed or failed requests) sort last and count as missing
// every limit.
double SortedPercentile(const std::vector<double>& sorted, double q);

// The highest of p50, p90, p99, p99.9, p99.99 that still has at least ten
// samples beyond it (0.5 when even p50 has not).
double HighestSupportedPercentile(size_t n);

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double top_q = 0.5;  // HighestSupportedPercentile(n).
  double top = 0;      // Value at top_q.
  double mean = 0;     // Over finite samples.
};
Summary Summarize(std::vector<double> samples);
// "p50=1.234 p99=5.678 p99.9(top)=... n=N" for the human-readable report.
std::string FormatSummary(const Summary& s, const char* unit);

// ---- Brute-force oracle ----

struct Hit {
  double distance = 0;
  uint32_t id = 0;
};

// Answers distance-first top-k queries over tokenised objects held in
// memory, sharing no index code with the library: its own tokenizer and
// hashing, a keyword-containment scan, then the distance of every match
// with the k nearest kept.
class Oracle {
 public:
  explicit Oracle(const std::vector<ir2::StoredObject>& objects);

  // Hashes of a query's keywords (each keyword one word, case-folded).
  std::vector<uint64_t> Words(const ir2::DistanceFirstQuery& q) const;
  // Indices of the objects containing every word (all for no words).
  std::vector<uint32_t> Containing(const std::vector<uint64_t>& words) const;
  // The k nearest of `candidates` to `p`, ascending by (distance, id).
  std::vector<Hit> Nearest(const std::vector<uint32_t>& candidates,
                           const ir2::Point& p, uint32_t k) const;
  // Nearest(Containing(Words(q)), q.point, q.k).
  std::vector<Hit> TopK(const ir2::DistanceFirstQuery& q) const;

  // Checks one answer: true iff it is a correct top-k for `q`. The second
  // form takes Words(q) and TopK(q) when the caller already has them.
  bool Check(const ir2::DistanceFirstQuery& q,
             const std::vector<Hit>& got) const;
  bool Check(const ir2::DistanceFirstQuery& q,
             const std::vector<uint64_t>& words, const std::vector<Hit>& want,
             const std::vector<Hit>& got) const;

 private:
  struct Object {
    double x = 0, y = 0;
    std::vector<uint64_t> words;  // Sorted token hashes.
  };
  bool HasAll(const Object& o, const std::vector<uint64_t>& words) const;

  std::vector<Object> objects_;
  std::vector<uint32_t> ids_;  // objects_[i] is object ids_[i].
  std::unordered_map<uint32_t, uint32_t> index_of_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> postings_;
};

// Lower-case alphanumeric words of `text`, hashed (FNV-1a 64).
std::vector<uint64_t> OracleWords(const std::string& text);

// Compares an answer `got` against the oracle's `want` (both ascending by
// distance). Distances must agree position by position; ids must agree for
// every result strictly nearer than the k-th distance; at the k-th distance
// ties compare by distance only, so any genuine match there is accepted.
// `genuine` says whether a returned id truly matches at its distance.
template <typename Genuine>
bool SameTopK(const std::vector<Hit>& want, std::vector<Hit> got,
              Genuine genuine);

// Relative tolerance for distance equality (the library and the oracle
// compute the same Euclidean formula; this only absorbs rounding).
inline bool SameDistance(double a, double b) {
  const double scale = a > 1.0 ? a : 1.0;
  return (a > b ? a - b : b - a) <= 1e-9 * scale;
}

// ---- Span self time ----

struct Span {
  int kind = 0;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  uint32_t tid = 0;
  int parent = -1;  // Filled by ComputeSelfTimes; -1 for the root.
};

// spans[0] is the root (the request). Every other span gets as parent the
// innermost span of the same thread that contains it; a span with no such
// span on its own thread goes under the innermost span of `primary_tid`
// containing it (a prefetch the demand thread waited for), else the root.
// Returns each span's self time: its duration minus the union of its
// children's intervals.
std::vector<double> ComputeSelfTimes(std::vector<Span>& spans,
                                     uint32_t primary_tid);

// ---- Workloads ----

enum class Workload { kServeUniform, kColdFile };
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// The dataset of a workload: fixed, independent of the run seed.
ir2::SyntheticConfig DatasetConfig(Workload w);

// cold_file: query i of a stream is a mid-selectivity pair when
// i % kCycle == kCycle - 1 (see QueryMaker), so every whole cycle of kCycle
// queries has exactly one.
constexpr size_t kCycle = 20;
// A mid-selectivity pair: two words of one object whose document
// frequencies give an independence-estimated selectivity
// (df1 / N) * (df2 / N) in [kMidSelectivityMin, kMidSelectivityMax).
constexpr double kMidSelectivityMin = 0.015;
constexpr double kMidSelectivityMax = 0.12;

// The seeded query streams of a workload over its dataset.
class QueryMaker {
 public:
  QueryMaker(Workload w, const std::vector<ir2::StoredObject>& objects);

  // `n` queries for `seed` (deterministic).
  std::vector<ir2::DistanceFirstQuery> Make(uint64_t seed, size_t n) const;
  // cold_file: the independence-estimated selectivity of `q`'s keywords.
  double Selectivity(const ir2::DistanceFirstQuery& q) const;

 private:
  std::vector<ir2::DistanceFirstQuery> ColdBand(uint64_t seed, size_t n) const;
  std::vector<ir2::DistanceFirstQuery> MidSelective(uint64_t seed,
                                                    size_t n) const;

  Workload w_;
  const std::vector<ir2::StoredObject>& objects_;
  // cold_file: document frequency of every word, and the bounding box.
  std::unordered_map<std::string, uint32_t> df_;
  double min_x_ = 0, min_y_ = 0, max_x_ = 0, max_y_ = 0;
};

// QueryMaker(w, objects).Make(seed, n).
std::vector<ir2::DistanceFirstQuery> MakeQueries(
    Workload w, uint64_t seed, const std::vector<ir2::StoredObject>& objects,
    size_t n);

// ---- Process and host ----

// VmHWM (peak) and VmRSS (current) of this process in MiB (0 when /proc is
// unavailable).
double PeakRssMb();
double RssMb();
// CPUs this process may run on.
unsigned AvailableCpus();

// CPU time of the whole machine (/proc/stat, all CPUs) and of this process
// (/proc/self/stat), in clock ticks.
struct CpuSample {
  uint64_t total = 0;  // Every state, steal included.
  uint64_t busy = 0;   // user, nice, system, irq, softirq.
  uint64_t steal = 0;  // Taken by the hypervisor for other machines.
  uint64_t own = 0;    // This process: user + system.
};
CpuSample SampleCpu();

// Load the program did not cause, over the windows between sample pairs.
struct HostLoad {
  CpuSample sum;  // Deltas, summed.
  void Add(const CpuSample& before, const CpuSample& after);
  void Add(const HostLoad& other) { Add(CpuSample{}, other.sum); }
  // Shares of all CPU time of the machine.
  double StealFrac() const;
  double ForeignFrac() const;  // Busy time of other processes.
};

// ---- Template definition ----

template <typename Genuine>
bool SameTopK(const std::vector<Hit>& want, std::vector<Hit> got,
              Genuine genuine) {
  if (got.size() != want.size()) return false;
  if (want.empty()) return true;
  std::sort(got.begin(), got.end(), [](const Hit& a, const Hit& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  });
  for (size_t i = 0; i < want.size(); ++i) {
    if (!SameDistance(got[i].distance, want[i].distance)) return false;
  }
  const double kth = want.back().distance;
  std::vector<uint32_t> near_want, near_got, all_got;
  for (size_t i = 0; i < want.size(); ++i) {
    all_got.push_back(got[i].id);
    if (SameDistance(want[i].distance, kth)) continue;
    near_want.push_back(want[i].id);
    near_got.push_back(got[i].id);
  }
  std::sort(near_want.begin(), near_want.end());
  std::sort(near_got.begin(), near_got.end());
  if (near_want != near_got) return false;
  std::sort(all_got.begin(), all_got.end());
  if (std::adjacent_find(all_got.begin(), all_got.end()) != all_got.end()) {
    return false;
  }
  for (const Hit& h : got) {
    if (!genuine(h)) return false;
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
