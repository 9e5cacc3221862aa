#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;
using testing_util::ResultIds;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = ::testing::TempDir() + "/ir2db_persistence_test";
    std::filesystem::remove_all(directory_);
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }
  std::string directory_;
};

TEST_F(PersistenceTest, SaveOpenRoundTripPreservesEverything) {
  std::vector<StoredObject> objects = RandomObjects(61, 300, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  options.stopwords = {"and", "the"};
  auto built = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(built->Save(directory_).ok());

  auto reopened = SpatialKeywordDatabase::Open(directory_).value();

  // Stats survive.
  EXPECT_EQ(reopened->stats().num_objects, built->stats().num_objects);
  EXPECT_EQ(reopened->stats().vocabulary_size,
            built->stats().vocabulary_size);
  EXPECT_EQ(reopened->ObjectFileBytes(), built->ObjectFileBytes());
  EXPECT_EQ(reopened->Ir2TreeBytes(), built->Ir2TreeBytes());
  EXPECT_EQ(reopened->Mir2TreeBytes(), built->Mir2TreeBytes());

  // Structures valid.
  ASSERT_TRUE(reopened->rtree()->Validate().ok());
  ASSERT_TRUE(reopened->ir2_tree()->Validate().ok());
  ASSERT_TRUE(reopened->mir2_tree()->Validate().ok());

  // Every algorithm answers identically pre- and post-reopen.
  Rng rng(62);
  for (int iter = 0; iter < 8; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {testing_util::Token("w", rng.NextUint64(30))};
    query.k = 10;
    EXPECT_EQ(ResultIds(reopened->Query(query, Algorithm::kRTree).value()),
              ResultIds(built->Query(query, Algorithm::kRTree).value()));
    EXPECT_EQ(ResultIds(reopened->Query(query, Algorithm::kIio).value()),
              ResultIds(built->Query(query, Algorithm::kIio).value()));
    EXPECT_EQ(ResultIds(reopened->Query(query, Algorithm::kIr2).value()),
              ResultIds(built->Query(query, Algorithm::kIr2).value()));
    EXPECT_EQ(ResultIds(reopened->Query(query, Algorithm::kMir2).value()),
              ResultIds(built->Query(query, Algorithm::kMir2).value()));

    GeneralQuery general;
    general.point = query.point;
    general.keywords = query.keywords;
    general.k = 5;
    auto a = reopened->QueryGeneral(general).value();
    auto b = built->QueryGeneral(general).value();
    EXPECT_EQ(ResultIds(a), ResultIds(b));
  }
}

TEST_F(PersistenceTest, PartialBuildsRoundTrip) {
  std::vector<StoredObject> objects = RandomObjects(63, 100, 20, 4);
  DatabaseOptions options;
  options.tree_options.capacity_override = 4;
  options.build_rtree = false;
  options.build_mir2 = false;
  auto built = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(built->Save(directory_).ok());

  auto reopened = SpatialKeywordDatabase::Open(directory_).value();
  EXPECT_EQ(reopened->rtree(), nullptr);
  EXPECT_EQ(reopened->mir2_tree(), nullptr);
  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w1"};
  query.k = 5;
  EXPECT_FALSE(reopened->Query(query, Algorithm::kRTree).ok());
  EXPECT_TRUE(reopened->Query(query, Algorithm::kIr2).ok());
  EXPECT_TRUE(reopened->Query(query, Algorithm::kIio).ok());
}

TEST_F(PersistenceTest, ReopenedDatabaseAcceptsUpdates) {
  std::vector<StoredObject> objects = RandomObjects(64, 150, 20, 4);
  DatabaseOptions options;
  options.tree_options.capacity_override = 6;
  auto built = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(built->Save(directory_).ok());
  built.reset();

  auto db = SpatialKeywordDatabase::Open(directory_).value();
  // Delete through the reopened tree (object 0 is at a known location).
  Rect rect = Rect::ForPoint(Point(objects[0].coords));
  // Find object 0's ref by querying for it.
  DistanceFirstQuery find;
  find.point = Point(objects[0].coords);
  find.k = 1;
  std::vector<QueryResult> nearest = db->Query(find, Algorithm::kIr2).value();
  ASSERT_EQ(nearest.size(), 1u);
  ASSERT_EQ(nearest[0].object_id, 0u);
  ASSERT_TRUE(db->ir2_tree()->DeleteObject(nearest[0].ref, rect).value());
  ASSERT_TRUE(db->ir2_tree()->Validate().ok());
  EXPECT_EQ(db->ir2_tree()->size(), 149u);

  // The deleted object no longer surfaces.
  std::vector<QueryResult> after = db->Query(find, Algorithm::kIr2).value();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].object_id, 0u);
}

TEST_F(PersistenceTest, FileBackedQueriesCostIdenticalDiskAccesses) {
  // The disk-access model must be device-independent: a cold query costs
  // the same block reads whether the index lives in memory or in files.
  std::vector<StoredObject> objects = RandomObjects(65, 250, 25, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  auto memory_db = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(memory_db->Save(directory_).ok());
  auto file_db = SpatialKeywordDatabase::Open(directory_).value();

  Rng rng(66);
  for (int iter = 0; iter < 5; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {testing_util::Token("w", rng.NextUint64(25))};
    query.k = 10;
    QueryStats memory_stats, file_stats;
    auto a = memory_db->Query(query, Algorithm::kIr2, &memory_stats).value();
    auto b = file_db->Query(query, Algorithm::kIr2, &file_stats).value();
    EXPECT_EQ(ResultIds(a), ResultIds(b));
    EXPECT_EQ(memory_stats.io.random_reads, file_stats.io.random_reads);
    EXPECT_EQ(memory_stats.io.sequential_reads,
              file_stats.io.sequential_reads);
    EXPECT_EQ(memory_stats.objects_loaded, file_stats.objects_loaded);
  }
}

TEST_F(PersistenceTest, OpenMissingDirectoryFails) {
  auto result = SpatialKeywordDatabase::Open(directory_ + "/nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ir2
