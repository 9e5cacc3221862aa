// Tests of the benchmark's own measuring and checking code.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "datagen/synthetic.h"
#include "harness.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankIsASample) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(SortedPercentile(v, 0.5), 50);
  EXPECT_EQ(SortedPercentile(v, 0.99), 99);
  EXPECT_EQ(SortedPercentile(v, 1.0), 100);
  EXPECT_EQ(SortedPercentile(v, 0.0), 1);
  EXPECT_EQ(SortedPercentile({}, 0.5), 0);
  EXPECT_EQ(SortedPercentile({7}, 0.99), 7);
  // 101 samples: p50 is the 51st.
  v.push_back(101);
  EXPECT_EQ(SortedPercentile(v, 0.5), 51);
}

TEST(Percentile, FailuresMissEveryLimit) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v(98, 1.0);
  v.push_back(inf);
  v.push_back(inf);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_EQ(s.p90, 1.0);
  EXPECT_TRUE(std::isinf(s.p99));
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
}

TEST(Percentile, HighestSupportedHasTenBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(5), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(100000), 0.9999);
}

TEST(Comparator, TiesAtKthCompareByDistanceOnly) {
  const std::vector<Hit> want = {{1.0, 10}, {2.0, 20}, {3.0, 30}};
  auto all_genuine = [](const Hit&) { return true; };
  EXPECT_TRUE(SameTopK(want, want, all_genuine));
  // Another object at the k-th distance is as good an answer.
  EXPECT_TRUE(SameTopK(want, {{1.0, 10}, {2.0, 20}, {3.0, 31}}, all_genuine));
  // Order within the answer does not matter.
  EXPECT_TRUE(SameTopK(want, {{3.0, 30}, {1.0, 10}, {2.0, 20}}, all_genuine));
  // A different object before the k-th distance is wrong.
  EXPECT_FALSE(SameTopK(want, {{1.0, 11}, {2.0, 20}, {3.0, 30}}, all_genuine));
  // A wrong distance, a missing result or a duplicate is wrong.
  EXPECT_FALSE(SameTopK(want, {{1.0, 10}, {2.0, 20}, {3.5, 30}}, all_genuine));
  EXPECT_FALSE(SameTopK(want, {{1.0, 10}, {2.0, 20}}, all_genuine));
  EXPECT_FALSE(SameTopK({{1.0, 10}, {1.0, 11}}, {{1.0, 10}, {1.0, 10}},
                        all_genuine));
  // A tie at the k-th distance must still be a genuine match.
  EXPECT_FALSE(SameTopK(want, {{1.0, 10}, {2.0, 20}, {3.0, 31}},
                        [](const Hit& h) { return h.id != 31; }));
}

TEST(Oracle, BruteForceTopK) {
  std::vector<ir2::StoredObject> objects = {
      {1, {0.0, 0.0}, "Pool, internet"},
      {2, {1.0, 0.0}, "pool"},
      {3, {2.0, 0.0}, "internet POOL spa"},
      {4, {-3.0, 0.0}, "internet pool"},
  };
  const Oracle oracle(objects);
  ir2::DistanceFirstQuery q;
  q.point = ir2::Point(1.9, 0.0);
  q.keywords = {"pool", "Internet"};
  q.k = 2;
  const std::vector<Hit> top = oracle.TopK(q);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 3u);
  EXPECT_EQ(top[1].id, 1u);
  EXPECT_TRUE(oracle.Check(q, top));
  // Object 2 is at object 1's distance but lacks "internet".
  EXPECT_FALSE(oracle.Check(q, {{top[0].distance, 3}, {top[1].distance, 2}}));
  EXPECT_EQ(oracle.Containing(oracle.Words(q)).size(), 3u);
  q.keywords = {"sauna"};
  EXPECT_TRUE(oracle.TopK(q).empty());
}

TEST(SelfTime, SubtractsChildrenAndReparentsWaitedPrefetch) {
  std::vector<Span> spans = {
      {0, 0, 100, 1, -1},   // Root request.
      {1, 10, 60, 2, -1},   // Query on the worker.
      {2, 20, 30, 2, -1},   // Child of the query.
      {3, 25, 28, 2, -1},   // Grandchild.
      {4, 40, 50, 9, -1},   // Prefetch on another thread, waited for.
      {5, 70, 80, 2, -1},   // Second top-level span.
  };
  const std::vector<double> self = ComputeSelfTimes(spans, /*primary=*/2);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[4].parent, 1);
  EXPECT_EQ(spans[5].parent, 0);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 50 - 10 - 10);
  EXPECT_EQ(self[2], 10 - 3);
  EXPECT_EQ(self[3], 3);
  EXPECT_EQ(self[4], 10);
  double sum = 0;
  for (double s : self) sum += s;
  EXPECT_EQ(sum, 100);  // The parts add back up to the request.
}

TEST(Workloads, SeedChangesQueriesNotSetup) {
  for (Workload w : {Workload::kServeUniform, Workload::kColdFile}) {
    ir2::SyntheticConfig config = DatasetConfig(w);
    config.num_objects = 300;  // Same shape, small.
    const std::vector<ir2::StoredObject> a = ir2::GenerateDataset(config);
    const std::vector<ir2::StoredObject> b = ir2::GenerateDataset(config);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a[7].text, b[7].text);
    EXPECT_EQ(DatasetConfig(w).seed, config.seed);
    auto q1 = MakeQueries(w, 1, a, 60);
    auto q1_again = MakeQueries(w, 1, a, 60);
    auto q2 = MakeQueries(w, 2, a, 60);
    ASSERT_EQ(q1.size(), 60u);
    bool same_again = true, same_other = true;
    for (size_t i = 0; i < q1.size(); ++i) {
      same_again &= q1[i].keywords == q1_again[i].keywords &&
                    q1[i].point[0] == q1_again[i].point[0] &&
                    q1[i].k == q1_again[i].k;
      same_other &= q1[i].keywords == q2[i].keywords &&
                    q1[i].point[0] == q2[i].point[0];
    }
    EXPECT_TRUE(same_again) << WorkloadName(w);
    EXPECT_FALSE(same_other) << WorkloadName(w);
  }
}

TEST(Workloads, ColdStreamHasOneMidSelectivityPairPerCycle) {
  ir2::SyntheticConfig config = DatasetConfig(Workload::kColdFile);
  config.num_objects = 600;
  const std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);
  const QueryMaker maker(Workload::kColdFile, objects);
  const Oracle oracle(objects);
  const std::vector<ir2::DistanceFirstQuery> qs = maker.Make(5, 3 * kCycle);
  ASSERT_EQ(qs.size(), 3 * kCycle);
  for (size_t i = 0; i < qs.size(); ++i) {
    const double p = maker.Selectivity(qs[i]);
    if (i % kCycle == kCycle - 1) {
      // Object-drawn, so some object matches; selectivity in the band.
      EXPECT_GE(p, kMidSelectivityMin) << i;
      EXPECT_LT(p, kMidSelectivityMax) << i;
      EXPECT_FALSE(oracle.Containing(oracle.Words(qs[i])).empty()) << i;
    } else {
      EXPECT_GE(p, kMidSelectivityMax) << i;  // Frequent band words.
    }
    EXPECT_EQ(qs[i].keywords.size(), 2u);
    EXPECT_EQ(qs[i].k, 10u);
  }
}

TEST(HostLoad, SharesOfMachineTime) {
  HostLoad load;
  load.Add(CpuSample{1000, 300, 10, 100}, CpuSample{2000, 700, 60, 350});
  // 1000 ticks: 50 stolen; 400 busy, 250 of them this process's.
  EXPECT_DOUBLE_EQ(load.StealFrac(), 0.05);
  EXPECT_DOUBLE_EQ(load.ForeignFrac(), 0.15);
  HostLoad both;
  both.Add(load);
  both.Add(load);
  EXPECT_DOUBLE_EQ(both.StealFrac(), 0.05);
  EXPECT_EQ(both.sum.total, 2000u);
  EXPECT_EQ(HostLoad().StealFrac(), 0.0);
  // The live sample reads this machine's counters.
  const CpuSample now = SampleCpu();
  EXPECT_GT(now.total, 0u);
  EXPECT_LE(now.busy + now.steal, now.total);
}

TEST(Tracer, PerRequestDrainDropsNothing) {
  ir2::SyntheticConfig config = DatasetConfig(Workload::kColdFile);
  config.num_objects = 400;
  const std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);
  auto db = ir2::SpatialKeywordDatabase::Build(objects, {});
  ASSERT_TRUE(db.ok());
  const Oracle oracle(objects);
  ir2::obs::Tracer tracer(1 << 20);
  uint64_t dropped = 0, events = 0;
  for (const ir2::DistanceFirstQuery& q :
       MakeQueries(Workload::kColdFile, 3, objects, 20)) {
    tracer.Clear();
    ir2::obs::ScopedTracer scope(&tracer);
    auto res = db.value()->Query(q, ir2::Algorithm::kAuto);
    ASSERT_TRUE(res.ok());
    std::vector<Hit> got;
    for (const ir2::QueryResult& r : res.value()) {
      got.push_back(Hit{r.distance, r.object_id});
    }
    EXPECT_TRUE(oracle.Check(q, got));
    events += tracer.Events().size();
    dropped += tracer.dropped();
  }
  EXPECT_GT(events, 0u);
  EXPECT_EQ(dropped, 0u);
}

}  // namespace
}  // namespace perfbench
