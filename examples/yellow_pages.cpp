// Yellow pages: the paper's motivating application. A user at an address
// asks for the nearest businesses whose description contains a set of
// keywords ("find the nearest hotels with internet and pool").
//
// Generates a synthetic city directory (clustered like real businesses),
// builds all four index structures, runs the same query workload through
// each algorithm, and prints the comparison the paper's Section VI makes:
// execution time, random + sequential disk accesses and object accesses.
//
//   ./yellow_pages            (~25k businesses)
//   IR2_SCALE=0.5 ./yellow_pages

#include <cstdio>
#include <vector>

#include "core/database.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"

namespace {

struct Tally {
  ir2::QueryStats stats;
  uint32_t queries = 0;

  void Print(const char* name) const {
    double n = queries > 0 ? queries : 1;
    std::printf(
        "  %-8s  %8.3f ms   %7.1f random  %7.1f sequential  %8.1f objects\n",
        name, stats.seconds * 1000.0 / n, stats.io.random_reads / n,
        stats.io.sequential_reads / n, stats.objects_loaded / n);
  }
};

}  // namespace

int main() {
  const double scale = ir2::DatasetScale(0.2);

  // A Restaurants-like directory: many businesses, short descriptions.
  ir2::SyntheticConfig data_config = ir2::RestaurantsLikeConfig(0.05 * scale);
  std::printf("Generating %u businesses...\n", data_config.num_objects);
  std::vector<ir2::StoredObject> businesses =
      ir2::GenerateDataset(data_config);

  ir2::DatabaseOptions options;
  options.ir2_signature =
      ir2::SignatureConfig{ir2::OptimalSignatureBits(
                               data_config.avg_distinct_words + 1, 3),
                           3};
  std::printf("Building indexes (signature: %u bytes)...\n",
              options.ir2_signature.bytes());
  auto db = ir2::SpatialKeywordDatabase::Build(businesses, options);
  if (!db.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  ir2::SpatialKeywordDatabase& database = *db->get();

  ir2::WorkloadConfig workload_config;
  workload_config.num_queries = 30;
  workload_config.num_keywords = 2;
  workload_config.k = 10;
  std::vector<ir2::DistanceFirstQuery> workload = ir2::GenerateWorkload(
      businesses, database.tokenizer(), workload_config);

  std::printf("\nRunning %zu queries (top-%u, %u keywords) per algorithm\n",
              workload.size(), workload_config.k,
              workload_config.num_keywords);

  Tally rtree, iio, ir2tree, mir2tree;
  for (const ir2::DistanceFirstQuery& query : workload) {
    using ir2::Algorithm;
    auto a = database.Query(query, Algorithm::kRTree, &rtree.stats).value();
    auto b = database.Query(query, Algorithm::kIio, &iio.stats).value();
    auto c = database.Query(query, Algorithm::kIr2, &ir2tree.stats).value();
    auto d = database.Query(query, Algorithm::kMir2, &mir2tree.stats).value();
    ++rtree.queries;
    ++iio.queries;
    ++ir2tree.queries;
    ++mir2tree.queries;
    // All four algorithms must return the same businesses.
    if (a.size() != c.size() || b.size() != c.size() ||
        d.size() != c.size()) {
      std::fprintf(stderr, "algorithm disagreement!\n");
      return 1;
    }
  }

  std::printf("\nPer-query averages (cold caches):\n");
  std::printf(
      "  %-8s  %11s   %7s         %7s             %8s\n", "algo", "time",
      "reads", "reads", "accesses");
  rtree.Print("R-Tree");
  iio.Print("IIO");
  ir2tree.Print("IR2");
  mir2tree.Print("MIR2");

  // Show one concrete query like the paper's running example.
  const ir2::DistanceFirstQuery& sample = workload.front();
  std::printf("\nSample query: nearest businesses containing {");
  for (size_t i = 0; i < sample.keywords.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", sample.keywords[i].c_str());
  }
  std::printf("} from [%.1f, %.1f]\n", sample.point[0], sample.point[1]);
  std::vector<ir2::QueryResult> results =
      database.Query(sample, ir2::Algorithm::kIr2).value();
  for (size_t i = 0; i < results.size() && i < 5; ++i) {
    std::printf("  %zu. business #%u at distance %.2f\n", i + 1,
                results[i].object_id, results[i].distance);
  }
  return 0;
}
