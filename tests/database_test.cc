#include <gtest/gtest.h>

#include <vector>

#include "core/batch_executor.h"
#include "core/database.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::Figure1Hotels;
using testing_util::RandomObjects;

TEST(DatabaseTest, BuildComputesDatasetStats) {
  std::vector<StoredObject> objects = RandomObjects(1, 200, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  const DatasetStats& stats = db->stats();
  EXPECT_EQ(stats.num_objects, 200u);
  // Each object: name token + up to 5 vocabulary words.
  EXPECT_GT(stats.AvgDistinctWordsPerObject(), 3.0);
  EXPECT_LE(stats.AvgDistinctWordsPerObject(), 6.0);
  // Vocabulary: <= 30 corpus words + 200 name tokens.
  EXPECT_GT(stats.vocabulary_size, 200u);
  EXPECT_LE(stats.vocabulary_size, 230u);
  EXPECT_GT(stats.object_file_bytes, 0u);
  EXPECT_GE(stats.AvgBlocksPerObject(), 1.0);
}

TEST(DatabaseTest, StructureSizesPopulated) {
  std::vector<StoredObject> objects = RandomObjects(2, 300, 30, 5);
  // Paper-like layout: 113-entry nodes, 189-byte signatures, so IR2 nodes
  // spill into extra blocks and the tree is strictly larger than the
  // R-Tree.
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{1512, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  EXPECT_GT(db->ObjectFileBytes(), 0u);
  EXPECT_GT(db->RTreeBytes(), 0u);
  EXPECT_GT(db->Ir2TreeBytes(), db->RTreeBytes());  // Signatures cost space.
  EXPECT_GT(db->Mir2TreeBytes(), 0u);
  EXPECT_GT(db->IioBytes(), 0u);
}

TEST(DatabaseTest, SelectiveBuildSkipsStructures) {
  std::vector<StoredObject> objects = RandomObjects(3, 50, 10, 3);
  DistanceFirstQuery query;
  query.point = Point(0, 0);
  query.k = 3;
  const std::vector<DistanceFirstQuery> batch = {query};
  constexpr Algorithm kAll[] = {Algorithm::kRTree, Algorithm::kIio,
                                Algorithm::kIr2,   Algorithm::kMir2,
                                Algorithm::kKcTree, Algorithm::kAuto};
  // One database per algorithm with exactly that algorithm's structure (the
  // planner, for kAuto) left out.
  for (Algorithm absent : kAll) {
    SCOPED_TRACE(AlgorithmName(absent));
    DatabaseOptions options;
    options.tree_options.capacity_override = 4;
    options.build_rtree = absent != Algorithm::kRTree;
    options.build_iio = absent != Algorithm::kIio;
    options.build_ir2 = absent != Algorithm::kIr2;
    options.build_mir2 = absent != Algorithm::kMir2;
    options.build_kc = absent != Algorithm::kKcTree;
    options.build_planner = absent != Algorithm::kAuto;
    auto db = SpatialKeywordDatabase::Build(objects, options).value();
    EXPECT_EQ(db->RTreeBytes() == 0, absent == Algorithm::kRTree);
    EXPECT_EQ(db->Mir2TreeBytes() == 0, absent == Algorithm::kMir2);
    EXPECT_EQ(db->KcTreeBytes() == 0, absent == Algorithm::kKcTree);

    EXPECT_EQ(db->Query(query, absent).status().code(),
              StatusCode::kFailedPrecondition);
    BatchExecutorOptions batch_options;
    batch_options.algorithm = absent;
    BatchExecutor executor(db.get(), batch_options);
    EXPECT_EQ(executor.Run(batch).status().code(),
              StatusCode::kFailedPrecondition);
    // Every structure that was built still answers, on both paths.
    for (Algorithm present : kAll) {
      if (present == absent) continue;
      SCOPED_TRACE(AlgorithmName(present));
      EXPECT_TRUE(db->Query(query, present).ok());
      batch_options.algorithm = present;
      EXPECT_TRUE(BatchExecutor(db.get(), batch_options).Run(batch).ok());
    }
  }
}

TEST(DatabaseTest, ColdQueriesRepeatIdenticalIo) {
  // With cold_queries, running the same query twice must cost identical
  // disk accesses — the property the benchmark harness depends on.
  std::vector<StoredObject> objects = RandomObjects(4, 400, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w3"};
  query.k = 5;
  QueryStats first, second;
  (void)db->Query(query, Algorithm::kIr2, &first).value();
  (void)db->Query(query, Algorithm::kIr2, &second).value();
  EXPECT_EQ(first.io.TotalReads(), second.io.TotalReads());
  EXPECT_EQ(first.io.random_reads, second.io.random_reads);
  EXPECT_GT(first.io.random_reads, 0u);
}

TEST(DatabaseTest, WarmQueriesCostLessIo) {
  std::vector<StoredObject> objects = RandomObjects(5, 400, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  options.cold_queries = false;
  auto db = SpatialKeywordDatabase::Build(objects, options).value();
  // The build leaves the pools warm; start from a genuinely cold cache so
  // the first query pays node reads and the second benefits from caching.
  ASSERT_TRUE(db->DropCaches().ok());

  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w3"};
  query.k = 5;
  QueryStats first, second;
  (void)db->Query(query, Algorithm::kIr2, &first).value();
  (void)db->Query(query, Algorithm::kIr2, &second).value();
  // Tree nodes are cached now; only object loads remain.
  EXPECT_LT(second.io.TotalReads(), first.io.TotalReads());
}

TEST(DatabaseTest, AggregateIoSumsDevices) {
  auto db = SpatialKeywordDatabase::Build(Figure1Hotels(), DatabaseOptions())
                .value();
  db->ResetIoStats();
  EXPECT_EQ(db->AggregateIo().TotalAccesses(), 0u);
  DistanceFirstQuery query;
  query.point = Point(0, 0);
  query.k = 1;
  (void)db->Query(query, Algorithm::kIr2).value();
  EXPECT_GT(db->AggregateIo().TotalReads(), 0u);
}

TEST(DatabaseTest, KeywordMatchesIsTheBooleanAnswerSet) {
  // Example 2 of the paper: Ans({internet, pool}) = {H2, H7}.
  auto db = SpatialKeywordDatabase::Build(Figure1Hotels(), DatabaseOptions())
                .value();
  std::vector<ObjectRef> matches =
      db->KeywordMatches({"internet", "pool"}).value();
  ASSERT_EQ(matches.size(), 2u);
  std::vector<uint32_t> ids;
  for (ObjectRef ref : matches) {
    ids.push_back(db->object_store().Load(ref).value().id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{2, 7}));

  EXPECT_TRUE(db->KeywordMatches({"unicorncastle"}).value().empty());
  EXPECT_FALSE(db->KeywordMatches({}).ok());
}

TEST(DatabaseTest, EmptyKeywordsActsAsPureNN) {
  auto db = SpatialKeywordDatabase::Build(Figure1Hotels(), DatabaseOptions())
                .value();
  DistanceFirstQuery query;
  query.point = Point(25.0, -80.0);  // Miami-ish: H1 nearest.
  query.keywords = {};
  query.k = 1;
  for (auto results : {db->Query(query, Algorithm::kRTree).value(),
                       db->Query(query, Algorithm::kIr2).value(),
                       db->Query(query, Algorithm::kMir2).value()}) {
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].object_id, 1u);
  }
}

}  // namespace
}  // namespace ir2
