// Prefetch / placement invariance guarantees (docs/performance.md):
//
//   1. Speculation is result-invariant: with prefetching on (synchronous
//      schedulers for determinism) every algorithm returns the identical
//      top-k ranking it returns with prefetching off.
//   2. Demand accounting is invariant: QueryStats.demand_io — the logical
//      block requests the query thread issues against the pools — is
//      byte-identical with prefetch on and off. Prefetching may only move
//      *physical* reads from the demand thread to the speculative column.
//   3. Locality placement (CompactInto after an incremental build) changes
//      where blocks live, never which or how many are requested: results
//      and demand request *counts* are unchanged; only the random /
//      sequential split (and therefore simulated time) may move.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/database.h"
#include "datagen/workload.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

class PrefetchInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    objects_ = testing_util::RandomObjects(/*seed=*/1234, /*n=*/600,
                                           /*vocab=*/40,
                                           /*words_per_object=*/6);
    WorkloadConfig config;
    config.seed = 99;
    config.num_queries = 24;
    config.num_keywords = 2;
    config.k = 8;
    workload_config_ = config;
  }

  std::unique_ptr<SpatialKeywordDatabase> BuildDb(bool prefetch,
                                                  bool locality) {
    DatabaseOptions options;
    options.tree_options.capacity_override = 16;
    options.ir2_signature =
        SignatureConfig{/*bits=*/128, /*hashes_per_word=*/3};
    options.prefetch = prefetch;
    options.scheduler.synchronous = true;  // Deterministic interleaving.
    options.locality_placement = locality;
    auto db = SpatialKeywordDatabase::Build(objects_, options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  std::vector<DistanceFirstQuery> Workload(const SpatialKeywordDatabase& db) {
    return GenerateWorkload(objects_, db.tokenizer(), workload_config_);
  }

  struct Run {
    std::vector<std::vector<QueryResult>> results;
    std::vector<QueryStats> stats;
  };

  template <typename Fn>
  Run RunAll(const std::vector<DistanceFirstQuery>& queries, Fn&& fn) {
    Run run;
    for (const DistanceFirstQuery& query : queries) {
      QueryStats stats;
      auto results = fn(query, &stats);
      EXPECT_TRUE(results.ok()) << results.status().ToString();
      run.results.push_back(std::move(results).value());
      run.stats.push_back(stats);
    }
    return run;
  }

  static void ExpectSameRanking(const Run& a, const Run& b,
                                const char* algo) {
    ASSERT_EQ(a.results.size(), b.results.size()) << algo;
    for (size_t i = 0; i < a.results.size(); ++i) {
      ASSERT_EQ(a.results[i].size(), b.results[i].size())
          << algo << " query " << i;
      for (size_t r = 0; r < a.results[i].size(); ++r) {
        EXPECT_EQ(a.results[i][r].ref, b.results[i][r].ref)
            << algo << " query " << i << " rank " << r;
        EXPECT_EQ(a.results[i][r].distance, b.results[i][r].distance)
            << algo << " query " << i << " rank " << r;
      }
    }
  }

  static void ExpectSameDemandIo(const Run& a, const Run& b,
                                 const char* algo) {
    ASSERT_EQ(a.stats.size(), b.stats.size()) << algo;
    for (size_t i = 0; i < a.stats.size(); ++i) {
      EXPECT_EQ(a.stats[i].demand_io, b.stats[i].demand_io)
          << algo << " query " << i;
    }
  }

  // Exercises one algorithm against a (prefetch off, prefetch on) database
  // pair built with identical placement.
  template <typename Fn>
  void CheckPrefetchInvariant(SpatialKeywordDatabase* off,
                              SpatialKeywordDatabase* on,
                              const std::vector<DistanceFirstQuery>& queries,
                              const char* algo, Fn&& query_fn,
                              bool expect_speculation) {
    Run base = RunAll(queries, [&](const DistanceFirstQuery& q,
                                   QueryStats* s) { return query_fn(off, q, s); });
    Run sped = RunAll(queries, [&](const DistanceFirstQuery& q,
                                   QueryStats* s) { return query_fn(on, q, s); });
    ExpectSameRanking(base, sped, algo);
    ExpectSameDemandIo(base, sped, algo);

    QueryStats base_total, sped_total;
    for (size_t i = 0; i < base.stats.size(); ++i) {
      base_total += base.stats[i];
      sped_total += sped.stats[i];
      // Cold + prefetch off: demand requests and physical accesses agree
      // exactly (the bypass-pool equality the regression test pins too).
      EXPECT_EQ(base.stats[i].io, base.stats[i].demand_io)
          << algo << " query " << i;
      EXPECT_EQ(base.stats[i].speculative_io.TotalAccesses(), 0u)
          << algo << " query " << i;
    }
    // Prefetching may only shift physical reads off the demand thread.
    EXPECT_LE(sped_total.io.TotalReads(), base_total.io.TotalReads()) << algo;
    if (expect_speculation) {
      EXPECT_GT(sped_total.speculative_io.TotalReads(), 0u) << algo;
      EXPECT_LT(sped_total.io.TotalReads(), base_total.io.TotalReads())
          << algo;
    }
  }

  std::vector<StoredObject> objects_;
  WorkloadConfig workload_config_;
};

TEST_F(PrefetchInvarianceTest, AllAlgorithmsInvariantWithDefaultPlacement) {
  auto off = BuildDb(/*prefetch=*/false, /*locality=*/false);
  auto on = BuildDb(/*prefetch=*/true, /*locality=*/false);
  const std::vector<DistanceFirstQuery> queries = Workload(*off);

  CheckPrefetchInvariant(
      off.get(), on.get(), queries, "IR2",
      [](SpatialKeywordDatabase* db, const DistanceFirstQuery& q,
         QueryStats* s) { return db->Query(q, Algorithm::kIr2, s); },
      /*expect_speculation=*/true);
  CheckPrefetchInvariant(
      off.get(), on.get(), queries, "MIR2",
      [](SpatialKeywordDatabase* db, const DistanceFirstQuery& q,
         QueryStats* s) { return db->Query(q, Algorithm::kMir2, s); },
      /*expect_speculation=*/true);
  CheckPrefetchInvariant(
      off.get(), on.get(), queries, "R-Tree",
      [](SpatialKeywordDatabase* db, const DistanceFirstQuery& q,
         QueryStats* s) { return db->Query(q, Algorithm::kRTree, s); },
      /*expect_speculation=*/true);
  CheckPrefetchInvariant(
      off.get(), on.get(), queries, "IIO",
      [](SpatialKeywordDatabase* db, const DistanceFirstQuery& q,
         QueryStats* s) { return db->Query(q, Algorithm::kIio, s); },
      /*expect_speculation=*/true);
}

TEST_F(PrefetchInvarianceTest, AllAlgorithmsInvariantWithLocalityPlacement) {
  auto off = BuildDb(/*prefetch=*/false, /*locality=*/true);
  auto on = BuildDb(/*prefetch=*/true, /*locality=*/true);
  const std::vector<DistanceFirstQuery> queries = Workload(*off);

  CheckPrefetchInvariant(
      off.get(), on.get(), queries, "IR2",
      [](SpatialKeywordDatabase* db, const DistanceFirstQuery& q,
         QueryStats* s) { return db->Query(q, Algorithm::kIr2, s); },
      /*expect_speculation=*/true);
  CheckPrefetchInvariant(
      off.get(), on.get(), queries, "MIR2",
      [](SpatialKeywordDatabase* db, const DistanceFirstQuery& q,
         QueryStats* s) { return db->Query(q, Algorithm::kMir2, s); },
      /*expect_speculation=*/true);
  CheckPrefetchInvariant(
      off.get(), on.get(), queries, "R-Tree",
      [](SpatialKeywordDatabase* db, const DistanceFirstQuery& q,
         QueryStats* s) { return db->Query(q, Algorithm::kRTree, s); },
      /*expect_speculation=*/true);
  // IIO does not live in the trees, so placement does not change it; still
  // covered for the object-prefetch path.
  CheckPrefetchInvariant(
      off.get(), on.get(), queries, "IIO",
      [](SpatialKeywordDatabase* db, const DistanceFirstQuery& q,
         QueryStats* s) { return db->Query(q, Algorithm::kIio, s); },
      /*expect_speculation=*/true);
}

TEST_F(PrefetchInvarianceTest, LocalityPlacementMovesOnlyTheRandomSeqSplit) {
  auto scattered = BuildDb(/*prefetch=*/false, /*locality=*/false);
  auto compacted = BuildDb(/*prefetch=*/false, /*locality=*/true);
  const std::vector<DistanceFirstQuery> queries = Workload(*scattered);

  struct Algo {
    const char* name;
    Algorithm algorithm;
  };
  const Algo algos[] = {
      {"IR2", Algorithm::kIr2},
      {"MIR2", Algorithm::kMir2},
      {"R-Tree", Algorithm::kRTree},
  };
  for (const Algo& algo : algos) {
    Run a = RunAll(queries, [&](const DistanceFirstQuery& q, QueryStats* s) {
      return scattered->Query(q, algo.algorithm, s);
    });
    Run b = RunAll(queries, [&](const DistanceFirstQuery& q, QueryStats* s) {
      return compacted->Query(q, algo.algorithm, s);
    });
    ExpectSameRanking(a, b, algo.name);
    for (size_t i = 0; i < a.stats.size(); ++i) {
      // Same blocks requested (count), possibly different classification.
      EXPECT_EQ(a.stats[i].demand_io.TotalReads(),
                b.stats[i].demand_io.TotalReads())
          << algo.name << " query " << i;
      EXPECT_EQ(a.stats[i].nodes_visited, b.stats[i].nodes_visited)
          << algo.name << " query " << i;
      EXPECT_EQ(a.stats[i].objects_loaded, b.stats[i].objects_loaded)
          << algo.name << " query " << i;
    }
  }
}

}  // namespace
}  // namespace ir2
