// Quickstart: the paper's running example end to end.
//
// Builds every index over the Figure 1 hotel dataset and reproduces the
// worked examples: the incremental NN order (Example 1), the IIO trace
// (Example 2), and the distance-first IR2-Tree query (Example 3), plus a
// general ranking-function query (Section V-C).
//
//   ./quickstart

#include <cstdio>

#include "core/database.h"

namespace {

ir2::StoredObject Hotel(uint32_t id, const char* name, double lat,
                        double lon, const char* amenities) {
  ir2::StoredObject object;
  object.id = id;
  object.coords = {lat, lon};
  object.text = std::string(name) + " " + amenities;
  return object;
}

std::vector<ir2::StoredObject> Figure1Dataset() {
  return {
      Hotel(1, "Hotel A", 25.4, -80.1,
            "tennis court, gift shop, spa, Internet"),
      Hotel(2, "Hotel B", 47.3, -122.2,
            "wireless Internet, pool, golf course"),
      Hotel(3, "Hotel C", 35.5, 139.4, "spa, continental suites, pool"),
      Hotel(4, "Hotel D", 39.5, 116.2, "sauna, pool, conference rooms"),
      Hotel(5, "Hotel E", 51.3, -0.5, "dry cleaning, free lunch, pets"),
      Hotel(6, "Hotel F", 40.4, -73.5,
            "safe box, concierge, internet, pets"),
      Hotel(7, "Hotel G", -33.2, -70.4,
            "Internet, airport transportation, pool"),
      Hotel(8, "Hotel H", -41.1, 174.4, "wake up service, no pets, pool"),
  };
}

void PrintResults(const char* label,
                  const std::vector<ir2::QueryResult>& results) {
  std::printf("%s\n", label);
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("  %zu. H%u  distance=%.1f", i + 1, results[i].object_id,
                results[i].distance);
    if (results[i].ir_score > 0) {
      std::printf("  IRscore=%.3f  f=%.3f", results[i].ir_score,
                  results[i].score);
    }
    std::printf("\n");
  }
  if (results.empty()) {
    std::printf("  (no results)\n");
  }
}

}  // namespace

int main() {
  // Build the object file, R-Tree, IR2-Tree, MIR2-Tree and inverted index.
  ir2::DatabaseOptions options;
  options.ir2_signature = ir2::SignatureConfig{/*bits=*/256,
                                               /*hashes_per_word=*/3};
  options.tree_options.capacity_override = 4;  // Deep tree on 8 hotels.
  auto db = ir2::SpatialKeywordDatabase::Build(Figure1Dataset(), options);
  if (!db.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  std::printf("Built indexes over %llu hotels (vocabulary: %llu words)\n\n",
              static_cast<unsigned long long>(db->get()->stats().num_objects),
              static_cast<unsigned long long>(
                  db->get()->stats().vocabulary_size));

  ir2::SpatialKeywordDatabase& database = *db->get();

  // Example 1: plain incremental NN from [30.5, 100.0].
  ir2::DistanceFirstQuery nn;
  nn.point = ir2::Point(30.5, 100.0);
  nn.k = 8;
  PrintResults("Example 1 - nearest hotels to [30.5, 100.0]:",
               database.Query(nn, ir2::Algorithm::kRTree).value());

  // Examples 2 & 3: top-2 hotels containing {internet, pool}.
  ir2::DistanceFirstQuery query;
  query.point = ir2::Point(30.5, 100.0);
  query.keywords = {"internet", "pool"};
  query.k = 2;

  ir2::QueryStats iio_stats, ir2_stats;
  PrintResults("\nExample 2 - IIO top-2 {internet, pool}:",
               database.Query(query, ir2::Algorithm::kIio, &iio_stats).value());
  std::printf("  object accesses: %llu\n",
              static_cast<unsigned long long>(iio_stats.objects_loaded));

  PrintResults("\nExample 3 - IR2-Tree top-2 {internet, pool}:",
               database.Query(query, ir2::Algorithm::kIr2, &ir2_stats).value());
  std::printf(
      "  nodes visited: %llu, entries pruned by signature: %llu, object "
      "accesses: %llu\n",
      static_cast<unsigned long long>(ir2_stats.nodes_visited),
      static_cast<unsigned long long>(ir2_stats.entries_pruned),
      static_cast<unsigned long long>(ir2_stats.objects_loaded));

  // Section V-C: general ranking-function query. Objects need not contain
  // all keywords; they are ranked by f = IRscore - 0.005 * distance.
  ir2::GeneralQuery general;
  general.point = ir2::Point(30.5, 100.0);
  general.keywords = {"internet", "pool"};
  general.k = 4;
  general.ir_weight = 1.0;
  general.distance_weight = 0.005;
  PrintResults(
      "\nGeneral top-4 (f = IRscore - 0.005*distance, OR semantics):",
      database.QueryGeneral(general).value());

  return 0;
}
