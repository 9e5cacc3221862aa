#include "harness.h"

#include <sched.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/random.h"
#include "datagen/workload.h"
#include "text/tokenizer.h"

namespace perfbench {

// ---- Percentiles ----

double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: ceil(q * n), 1-based.
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size() - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.5;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  }
  return best;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  std::sort(samples.begin(), samples.end());
  s.n = samples.size();
  s.p50 = SortedPercentile(samples, 0.5);
  s.p90 = SortedPercentile(samples, 0.9);
  s.p99 = SortedPercentile(samples, 0.99);
  s.top_q = HighestSupportedPercentile(s.n);
  s.top = SortedPercentile(samples, s.top_q);
  double sum = 0;
  size_t finite = 0;
  for (double v : samples) {
    if (!std::isfinite(v)) continue;
    sum += v;
    ++finite;
  }
  s.mean = finite == 0 ? 0.0 : sum / static_cast<double>(finite);
  return s;
}

std::string FormatSummary(const Summary& s, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "p50=%.4f%s p99=%.4f%s (n=%zu, %.0f beyond p99) "
                "highest supported p%g=%.4f%s mean=%.4f%s",
                s.p50, unit, s.p99, unit, s.n, static_cast<double>(s.n) * 0.01,
                s.top_q * 100.0, s.top, unit, s.mean, unit);
  return buf;
}

// ---- Oracle ----

namespace {

uint64_t Fnv1a(const char* data, size_t len) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::vector<uint64_t> OracleWords(const std::string& text) {
  std::vector<uint64_t> words;
  std::string word;
  auto flush = [&] {
    if (!word.empty()) words.push_back(Fnv1a(word.data(), word.size()));
    word.clear();
  };
  for (unsigned char c : text) {
    if (std::isalnum(c)) {
      word.push_back(static_cast<char>(std::tolower(c)));
    } else {
      flush();
    }
  }
  flush();
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

Oracle::Oracle(const std::vector<ir2::StoredObject>& objects) {
  objects_.reserve(objects.size());
  for (const ir2::StoredObject& o : objects) {
    Object obj;
    obj.x = o.coords.at(0);
    obj.y = o.coords.at(1);
    obj.words = OracleWords(o.text);
    const uint32_t index = static_cast<uint32_t>(objects_.size());
    for (uint64_t w : obj.words) postings_[w].push_back(index);
    index_of_[o.id] = index;
    ids_.push_back(o.id);
    objects_.push_back(std::move(obj));
  }
}

std::vector<uint64_t> Oracle::Words(const ir2::DistanceFirstQuery& q) const {
  std::string joined;
  for (const std::string& k : q.keywords) {
    // A keyword is one word: its alphanumeric characters, case-folded.
    for (unsigned char c : k) {
      if (std::isalnum(c)) joined.push_back(static_cast<char>(c));
    }
    joined.push_back(' ');
  }
  return OracleWords(joined);
}

bool Oracle::HasAll(const Object& o,
                    const std::vector<uint64_t>& words) const {
  for (uint64_t w : words) {
    if (!std::binary_search(o.words.begin(), o.words.end(), w)) return false;
  }
  return true;
}

std::vector<uint32_t> Oracle::Containing(
    const std::vector<uint64_t>& words) const {
  // Walk the rarest word's objects and test the rest against each object's
  // own word set.
  const std::vector<uint32_t>* shortest = nullptr;
  for (uint64_t w : words) {
    auto it = postings_.find(w);
    if (it == postings_.end()) return {};
    if (shortest == nullptr || it->second.size() < shortest->size()) {
      shortest = &it->second;
    }
  }
  std::vector<uint32_t> out;
  if (shortest == nullptr) {
    out.resize(objects_.size());
    for (uint32_t i = 0; i < out.size(); ++i) out[i] = i;
    return out;
  }
  for (uint32_t i : *shortest) {
    if (HasAll(objects_[i], words)) out.push_back(i);
  }
  return out;
}

std::vector<Hit> Oracle::Nearest(const std::vector<uint32_t>& candidates,
                                 const ir2::Point& p, uint32_t k) const {
  // Every candidate's distance; a bounded max-heap keeps the k smallest
  // (squared distance, id) pairs.
  struct Item {
    double d2;
    uint32_t id;
    bool operator<(const Item& o) const {
      return d2 != o.d2 ? d2 < o.d2 : id < o.id;
    }
  };
  std::vector<Item> heap;
  heap.reserve(k + 1);
  for (uint32_t i : candidates) {
    const double dx = objects_[i].x - p[0];
    const double dy = objects_[i].y - p[1];
    const Item item{dx * dx + dy * dy, ids_[i]};
    if (heap.size() < k) {
      heap.push_back(item);
      std::push_heap(heap.begin(), heap.end());
    } else if (k > 0 && item < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = item;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  std::vector<Hit> hits;
  hits.reserve(heap.size());
  for (const Item& item : heap) {
    hits.push_back(Hit{std::sqrt(item.d2), item.id});
  }
  return hits;
}

std::vector<Hit> Oracle::TopK(const ir2::DistanceFirstQuery& q) const {
  return Nearest(Containing(Words(q)), q.point, q.k);
}

bool Oracle::Check(const ir2::DistanceFirstQuery& q,
                   const std::vector<Hit>& got) const {
  return Check(q, Words(q), TopK(q), got);
}

bool Oracle::Check(const ir2::DistanceFirstQuery& q,
                   const std::vector<uint64_t>& words,
                   const std::vector<Hit>& want,
                   const std::vector<Hit>& got) const {
  return SameTopK(want, got, [&](const Hit& h) {
    auto it = index_of_.find(h.id);
    if (it == index_of_.end()) return false;
    const Object& o = objects_[it->second];
    const double dx = o.x - q.point[0];
    const double dy = o.y - q.point[1];
    return HasAll(o, words) &&
           SameDistance(std::sqrt(dx * dx + dy * dy), h.distance);
  });
}

// ---- Self time ----

std::vector<double> ComputeSelfTimes(std::vector<Span>& spans,
                                     uint32_t primary_tid) {
  const size_t n = spans.size();
  std::vector<double> self(n, 0.0);
  if (n == 0) return self;
  auto contains = [&](size_t outer, size_t inner) {
    return spans[outer].start_us <= spans[inner].start_us &&
           spans[inner].end_us <= spans[outer].end_us;
  };
  // Outer spans first (earlier start, then longer), so a parent precedes
  // its children.
  std::vector<size_t> order;
  for (size_t i = 1; i < n; ++i) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans[a].start_us != spans[b].start_us) {
      return spans[a].start_us < spans[b].start_us;
    }
    if (spans[a].end_us != spans[b].end_us) {
      return spans[a].end_us > spans[b].end_us;
    }
    return a < b;
  });
  spans[0].parent = -1;
  // Open-span stack per thread; the innermost containing span is on top.
  std::unordered_map<uint32_t, std::vector<size_t>> open;
  for (size_t i : order) {
    std::vector<size_t>& stack = open[spans[i].tid];
    while (!stack.empty() && !contains(stack.back(), i)) stack.pop_back();
    int parent = 0;
    if (!stack.empty()) {
      parent = static_cast<int>(stack.back());
    } else if (spans[i].tid != primary_tid) {
      std::vector<size_t>& primary = open[primary_tid];
      for (size_t j = primary.size(); j-- > 0;) {
        if (contains(primary[j], i)) {
          parent = static_cast<int>(primary[j]);
          break;
        }
      }
    }
    spans[i].parent = parent;
    stack.push_back(i);
  }
  // Self = duration minus the union of the children's intervals.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(n);
  for (size_t i = 1; i < n; ++i) {
    children[spans[i].parent].emplace_back(spans[i].start_us, spans[i].end_us);
  }
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<uint64_t, uint64_t>>& c = children[i];
    std::sort(c.begin(), c.end());
    uint64_t covered = 0;
    uint64_t lo = 0, hi = 0;
    bool have = false;
    for (const auto& [s, e] : c) {
      const uint64_t cs = std::max(s, spans[i].start_us);
      const uint64_t ce = std::min(e, spans[i].end_us);
      if (ce <= cs) continue;
      if (have && cs <= hi) {
        hi = std::max(hi, ce);
      } else {
        if (have) covered += hi - lo;
        lo = cs;
        hi = ce;
        have = true;
      }
    }
    if (have) covered += hi - lo;
    const uint64_t dur = spans[i].end_us - spans[i].start_us;
    self[i] = static_cast<double>(dur - std::min(dur, covered));
  }
  return self;
}

// ---- Workloads ----

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kServeUniform, Workload::kColdFile}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeUniform:
      return "serve_uniform";
    case Workload::kColdFile:
      return "cold_file";
  }
  return "?";
}

// The benches' default scale (IR2_SCALE unset): 36,503 restaurants,
// 10,345 hotels.
constexpr double kBenchScale = 0.08;

ir2::SyntheticConfig DatasetConfig(Workload w) {
  return w == Workload::kColdFile ? ir2::HotelsLikeConfig(kBenchScale)
                                  : ir2::RestaurantsLikeConfig(kBenchScale);
}

QueryMaker::QueryMaker(Workload w,
                       const std::vector<ir2::StoredObject>& objects)
    : w_(w), objects_(objects) {
  if (w != Workload::kColdFile) return;
  min_x_ = min_y_ = std::numeric_limits<double>::infinity();
  max_x_ = max_y_ = -min_x_;
  const ir2::Tokenizer tokenizer;
  for (const ir2::StoredObject& o : objects) {
    min_x_ = std::min(min_x_, o.coords[0]);
    max_x_ = std::max(max_x_, o.coords[0]);
    min_y_ = std::min(min_y_, o.coords[1]);
    max_y_ = std::max(max_y_, o.coords[1]);
    for (const std::string& word : tokenizer.DistinctTokens(o.text)) {
      ++df_[word];
    }
  }
}

double QueryMaker::Selectivity(const ir2::DistanceFirstQuery& q) const {
  double p = 1.0;
  for (const std::string& k : q.keywords) {
    auto it = df_.find(ir2::Tokenizer::Normalize(k));
    p *= it == df_.end() ? 0.0
                         : static_cast<double>(it->second) /
                               static_cast<double>(objects_.size());
  }
  return p;
}

// Band queries: two distinct words of Hotels vocabulary ranks [16, 64),
// k = 10, at a uniform point of the data's bounding box. A conjunction this
// frequent finds its matches within a few leaf nodes: tree traversals with
// signature/bitmap tests, children-run prefetch and object verification.
std::vector<ir2::DistanceFirstQuery> QueryMaker::ColdBand(uint64_t seed,
                                                          size_t n) const {
  const uint64_t vocab_seed = DatasetConfig(Workload::kColdFile).seed;
  ir2::Rng rng(seed);
  std::vector<ir2::DistanceFirstQuery> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ir2::DistanceFirstQuery q;
    q.k = 10;
    q.point = ir2::Point(rng.NextDouble(min_x_, max_x_),
                         rng.NextDouble(min_y_, max_y_));
    while (q.keywords.size() < 2) {
      std::string word = ir2::VocabularyWord(
          vocab_seed, static_cast<uint32_t>(16 + rng.NextUint64(48)));
      if (q.keywords.empty() || q.keywords[0] != word) {
        q.keywords.push_back(std::move(word));
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

// Mid-selectivity pairs: object-drawn pairs (WorkloadConfig::kFromObject,
// so at least one object matches), k = 10, at a uniform point, kept when
// their estimated selectivity p is in [kMidSelectivityMin,
// kMidSelectivityMax). A traversal expects to verify about k / p of them,
// 80 to 670 objects, each a random read; the program may instead sweep the
// whole object file. Either way its wall time counts as measured.
std::vector<ir2::DistanceFirstQuery> QueryMaker::MidSelective(
    uint64_t seed, size_t n) const {
  // A dataset with too few such pairs leaves the rest of the stream as
  // band queries; the workload's dataset has plenty (about 12% of
  // object-drawn pairs).
  std::vector<ir2::DistanceFirstQuery> out;
  for (uint64_t batch = 0; out.size() < n && batch < 10000; ++batch) {
    ir2::WorkloadConfig config;
    config.seed = seed * 1000003 + batch;
    config.num_queries = 64;
    config.num_keywords = 2;
    config.k = 10;
    config.source = ir2::WorkloadConfig::KeywordSource::kFromObject;
    for (ir2::DistanceFirstQuery& q :
         ir2::GenerateWorkload(objects_, ir2::Tokenizer(), config)) {
      const double p = Selectivity(q);
      if (out.size() < n && p >= kMidSelectivityMin &&
          p < kMidSelectivityMax) {
        out.push_back(std::move(q));
      }
    }
  }
  return out;
}

std::vector<ir2::DistanceFirstQuery> QueryMaker::Make(uint64_t seed,
                                                      size_t n) const {
  if (w_ == Workload::kServeUniform) {
    ir2::WorkloadConfig config;
    config.seed = seed;
    config.num_queries = static_cast<uint32_t>(n);
    config.num_keywords = 2;
    config.k = 10;
    config.source = ir2::WorkloadConfig::KeywordSource::kFromObject;
    return ir2::GenerateWorkload(objects_, ir2::Tokenizer(), config);
  }
  std::vector<ir2::DistanceFirstQuery> out = ColdBand(seed, n);
  const std::vector<ir2::DistanceFirstQuery> mid =
      MidSelective(seed ^ 0x9e3779b97f4a7c15ull, n / kCycle);
  for (size_t j = 0; j < mid.size(); ++j) {
    out[(j + 1) * kCycle - 1] = mid[j];
  }
  return out;
}

std::vector<ir2::DistanceFirstQuery> MakeQueries(
    Workload w, uint64_t seed, const std::vector<ir2::StoredObject>& objects,
    size_t n) {
  return QueryMaker(w, objects).Make(seed, n);
}

// ---- Process and host ----

namespace {

double ProcStatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return ProcStatusMb("VmHWM:"); }
double RssMb() { return ProcStatusMb("VmRSS:"); }

unsigned AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

CpuSample SampleCpu() {
  CpuSample s;
  {
    // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
    // guest time is already counted in user.
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};
    in >> cpu;
    for (uint64_t& x : v) in >> x;
    if (in && cpu == "cpu") {
      for (uint64_t x : v) s.total += x;
      s.busy = v[0] + v[1] + v[2] + v[5] + v[6];
      s.steal = v[7];
    }
  }
  {
    // Fields 14 and 15 (utime, stime) follow the parenthesised command.
    std::ifstream in("/proc/self/stat");
    std::string line;
    std::getline(in, line);
    const size_t close = line.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(line.substr(close + 2));
      std::string field;
      uint64_t utime = 0, stime = 0;
      for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
        if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
      }
      s.own = utime + stime;
    }
  }
  return s;
}

void HostLoad::Add(const CpuSample& before, const CpuSample& after) {
  sum.total += after.total - before.total;
  sum.busy += after.busy - before.busy;
  sum.steal += after.steal - before.steal;
  sum.own += after.own - before.own;
}

double HostLoad::StealFrac() const {
  return sum.total == 0 ? 0.0
                        : static_cast<double>(sum.steal) /
                              static_cast<double>(sum.total);
}

double HostLoad::ForeignFrac() const {
  const uint64_t foreign = sum.busy > sum.own ? sum.busy - sum.own : 0;
  return sum.total == 0 ? 0.0
                        : static_cast<double>(foreign) /
                              static_cast<double>(sum.total);
}

}  // namespace perfbench
