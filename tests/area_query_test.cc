#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "geo/rect.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;
using testing_util::ResultIds;

TEST(RectRectMinDistTest, OverlappingAndTouchingAreZero) {
  Rect a(Point(0, 0), Point(10, 10));
  EXPECT_DOUBLE_EQ(a.MinDist(Rect(Point(5, 5), Point(15, 15))), 0.0);
  EXPECT_DOUBLE_EQ(a.MinDist(Rect(Point(10, 10), Point(12, 12))), 0.0);
  EXPECT_DOUBLE_EQ(a.MinDist(a), 0.0);
  EXPECT_DOUBLE_EQ(a.MinDist(Rect(Point(2, 2), Point(3, 3))), 0.0);
}

TEST(RectRectMinDistTest, FaceAndCornerGaps) {
  Rect a(Point(0, 0), Point(10, 10));
  EXPECT_DOUBLE_EQ(a.MinDist(Rect(Point(13, 0), Point(20, 10))), 3.0);
  EXPECT_DOUBLE_EQ(a.MinDist(Rect(Point(0, -8), Point(10, -5))), 5.0);
  // Diagonal gap (3, 4) -> 5.
  EXPECT_DOUBLE_EQ(a.MinDist(Rect(Point(13, 14), Point(20, 20))), 5.0);
}

TEST(RectRectMinDistTest, ConsistentWithPointMinDist) {
  // Degenerate rect == point.
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    Rect r(Point(rng.NextDouble(0, 50), rng.NextDouble(0, 50)),
           Point(rng.NextDouble(50, 100), rng.NextDouble(50, 100)));
    Point p(rng.NextDouble(-50, 150), rng.NextDouble(-50, 150));
    EXPECT_DOUBLE_EQ(r.MinDist(Rect::ForPoint(p)), r.MinDist(p));
  }
}

TEST(RectRectMinDistTest, SymmetricLowerBound) {
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    auto random_rect = [&rng]() {
      double x1 = rng.NextDouble(0, 100), x2 = rng.NextDouble(0, 100);
      double y1 = rng.NextDouble(0, 100), y2 = rng.NextDouble(0, 100);
      return Rect(Point(std::min(x1, x2), std::min(y1, y2)),
                  Point(std::max(x1, x2), std::max(y1, y2)));
    };
    Rect a = random_rect(), b = random_rect();
    EXPECT_DOUBLE_EQ(a.MinDist(b), b.MinDist(a));
    // Lower-bounds the distance between contained points.
    Point pa(rng.NextDouble(a.lo()[0], a.hi()[0]),
             rng.NextDouble(a.lo()[1], a.hi()[1]));
    Point pb(rng.NextDouble(b.lo()[0], b.hi()[0]),
             rng.NextDouble(b.lo()[1], b.hi()[1]));
    EXPECT_LE(a.MinDist(b), Distance(pa, pb) + 1e-9);
  }
}

// Brute force for area-target distance-first queries.
std::vector<uint32_t> BruteForceAreaQuery(
    const std::vector<StoredObject>& objects, const Rect& area,
    const std::vector<std::string>& keywords, uint32_t k) {
  Tokenizer tokenizer;
  struct Hit {
    double distance;
    uint32_t id;
  };
  std::vector<Hit> hits;
  for (const StoredObject& object : objects) {
    if (!ContainsAllKeywords(tokenizer, object.text, keywords)) continue;
    hits.push_back(Hit{area.MinDist(Point(object.coords)), object.id});
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  std::vector<uint32_t> ids;
  for (const Hit& hit : hits) {
    if (ids.size() == k) break;
    ids.push_back(hit.id);
  }
  return ids;
}

TEST(AreaQueryTest, AllAlgorithmsAgreeOnAreaTargets) {
  std::vector<StoredObject> objects = RandomObjects(31, 300, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 6;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  Rng rng(32);
  for (int iter = 0; iter < 10; ++iter) {
    double x = rng.NextDouble(0, 900), y = rng.NextDouble(0, 900);
    DistanceFirstQuery query;
    query.area = Rect(Point(x, y), Point(x + 100, y + 100));
    query.keywords = {testing_util::Token("w", rng.NextUint64(30))};
    query.k = 8;

    std::vector<uint32_t> expected =
        BruteForceAreaQuery(objects, *query.area, query.keywords, query.k);
    EXPECT_EQ(ResultIds(db->Query(query, Algorithm::kRTree).value()), expected);
    EXPECT_EQ(ResultIds(db->Query(query, Algorithm::kIio).value()), expected);
    EXPECT_EQ(ResultIds(db->Query(query, Algorithm::kIr2).value()), expected);
    EXPECT_EQ(ResultIds(db->Query(query, Algorithm::kMir2).value()), expected);
  }
}

TEST(AreaQueryTest, ObjectsInsideAreaComeFirstAtDistanceZero) {
  std::vector<StoredObject> objects = RandomObjects(33, 200, 10, 4);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  DistanceFirstQuery query;
  query.area = Rect(Point(200, 200), Point(800, 800));
  query.keywords = {};
  query.k = 200;
  std::vector<QueryResult> results = db->Query(query, Algorithm::kIr2).value();
  ASSERT_EQ(results.size(), 200u);
  bool seen_positive = false;
  for (const QueryResult& result : results) {
    if (result.distance > 0) seen_positive = true;
    // Once distances go positive they never return to zero.
    if (seen_positive) {
      EXPECT_GT(result.distance, 0.0);
    }
  }
  // The big area contains many objects (distance 0) and excludes others.
  EXPECT_TRUE(seen_positive);
  EXPECT_DOUBLE_EQ(results.front().distance, 0.0);
}

TEST(AreaQueryTest, GeneralQuerySupportsAreaTargets) {
  std::vector<StoredObject> objects = RandomObjects(34, 200, 20, 4);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  GeneralQuery query;
  query.area = Rect(Point(400, 400), Point(600, 600));
  query.keywords = {"w5"};
  query.k = 5;
  query.ir_weight = 1.0;
  query.distance_weight = 0.01;
  std::vector<QueryResult> results = db->QueryGeneral(query).value();
  for (const QueryResult& result : results) {
    EXPECT_GT(result.ir_score, 0.0);
    // Distance is MINDIST to the area (0 inside).
    EXPECT_GE(result.distance, 0.0);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score + 1e-12, results[i].score);
  }
}

}  // namespace
}  // namespace ir2
