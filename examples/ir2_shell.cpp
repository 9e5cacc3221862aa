// Interactive shell over a spatial-keyword database — the "online yellow
// pages" of the paper's introduction, as a tool you can actually drive.
//
// Usage:
//   ./ir2_shell                  demo dataset (5k synthetic businesses)
//   ./ir2_shell data.tsv         load "id<TAB>x<TAB>y<TAB>text" rows
//   ./ir2_shell data.tsv dbdir   ...build, then persist into dbdir/
//   ./ir2_shell dbdir            reopen a persisted database (file I/O)
//
// Commands (also accepted on stdin when piped):
//   top <k> <x> <y> <keyword> [keyword...]    distance-first IR2 query
//   rtree|iio|mir2 <k> <x> <y> <kw...>        same query, other algorithms
//   rank <k> <x> <y> <w_ir> <w_dist> <kw...>  general ranking query
//   area <k> <x1> <y1> <x2> <y2> <kw...>      area-target query
//   stats                                     tree structure report
//   sizes                                     index sizes
//   help / quit

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "datagen/synthetic.h"
#include "rtree/tree_stats.h"

namespace {

using ir2::SpatialKeywordDatabase;

std::vector<ir2::StoredObject> LoadTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<ir2::StoredObject> objects;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string id_field, x_field, y_field, text;
    if (!std::getline(row, id_field, '\t') ||
        !std::getline(row, x_field, '\t') ||
        !std::getline(row, y_field, '\t') || !std::getline(row, text)) {
      continue;  // Skip malformed rows.
    }
    ir2::StoredObject object;
    object.id = static_cast<uint32_t>(std::stoul(id_field));
    object.coords = {std::stod(x_field), std::stod(y_field)};
    object.text = std::move(text);
    objects.push_back(std::move(object));
  }
  return objects;
}

std::vector<ir2::StoredObject> DemoDataset() {
  ir2::SyntheticConfig config;
  config.num_objects = 5000;
  config.vocabulary_size = 3000;
  config.avg_distinct_words = 12.0;
  config.spatial = ir2::SyntheticConfig::Spatial::kClustered;
  config.name_prefix = "biz";
  return ir2::GenerateDataset(config);
}

void PrintResults(const std::vector<ir2::QueryResult>& results,
                  const ir2::QueryStats& stats) {
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("  %2zu. #%-8u dist=%-10.3f", i + 1, results[i].object_id,
                results[i].distance);
    if (results[i].ir_score != 0) {
      std::printf(" ir=%-8.3f f=%-10.3f", results[i].ir_score,
                  results[i].score);
    }
    std::printf("\n");
  }
  std::printf("  [%zu results, %.2f ms, %llu random + %llu sequential block "
              "reads, %llu objects]\n",
              results.size(), stats.seconds * 1000.0,
              static_cast<unsigned long long>(stats.io.random_reads),
              static_cast<unsigned long long>(stats.io.sequential_reads),
              static_cast<unsigned long long>(stats.objects_loaded));
}

void Help() {
  std::printf(
      "commands:\n"
      "  top   <k> <x> <y> <keyword...>            IR2-Tree distance-first\n"
      "  rtree <k> <x> <y> <keyword...>            R-Tree baseline\n"
      "  iio   <k> <x> <y> <keyword...>            inverted-index baseline\n"
      "  mir2  <k> <x> <y> <keyword...>            MIR2-Tree\n"
      "  rank  <k> <x> <y> <w_ir> <w_d> <kw...>    general ranking query\n"
      "  area  <k> <x1> <y1> <x2> <y2> <kw...>     area-target query\n"
      "  keywords <kw...>                          Boolean match count\n"
      "  stats | sizes | help | quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<SpatialKeywordDatabase> database;
  if (argc > 1 && std::filesystem::is_directory(argv[1])) {
    std::printf("opening persisted database %s...\n", argv[1]);
    auto opened = SpatialKeywordDatabase::Open(argv[1]);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    database = std::move(opened).value();
    std::printf("%llu objects, file-backed indexes\n",
                static_cast<unsigned long long>(
                    database->stats().num_objects));
  } else {
    std::vector<ir2::StoredObject> objects =
        argc > 1 ? LoadTsv(argv[1]) : DemoDataset();
    if (objects.empty()) {
      std::fprintf(stderr, "no objects loaded\n");
      return 1;
    }
    std::printf("building indexes over %zu objects...\n", objects.size());

    ir2::DatabaseOptions options;
    // Signature sized for the corpus at hand.
    double avg_words = 12.0;
    options.ir2_signature =
        ir2::SignatureConfig{ir2::OptimalSignatureBits(avg_words + 1, 3), 3};
    options.bulk_load = true;
    auto built = SpatialKeywordDatabase::Build(objects, options);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    database = std::move(built).value();
    if (argc > 2) {
      ir2::Status saved = database->Save(argv[2]);
      if (!saved.ok()) {
        std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
        return 1;
      }
      std::printf("persisted into %s/ (reopen with: ir2_shell %s)\n",
                  argv[2], argv[2]);
    }
  }
  SpatialKeywordDatabase& db = *database;
  std::printf("ready. type 'help' for commands.\n");
  if (argc <= 1) {
    // Demo corpus keywords are synthetic; suggest real ones.
    std::printf("try:  top 5 500 500 %s   |   rank 5 500 500 10 0.1 %s %s\n",
                ir2::VocabularyWord(42, 0).c_str(),
                ir2::VocabularyWord(42, 1).c_str(),
                ir2::VocabularyWord(42, 5).c_str());
  }

  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream args(line);
    std::string command;
    args >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      Help();
      continue;
    }
    if (command == "stats") {
      for (auto [name, tree] :
           {std::pair<const char*, ir2::RTreeBase*>{"IR2-Tree",
                                                    db.ir2_tree()},
            {"MIR2-Tree", db.mir2_tree()}}) {
        auto report = ir2::ComputeTreeStats(*tree);
        if (report.ok()) {
          std::printf("%s:\n%s\n", name,
                      report->ToString(tree->node_capacity()).c_str());
        }
      }
      continue;
    }
    if (command == "keywords") {
      std::vector<std::string> keywords;
      std::string keyword;
      while (args >> keyword) keywords.push_back(keyword);
      ir2::QueryStats stats;
      auto matches = db.KeywordMatches(keywords, &stats);
      if (!matches.ok()) {
        std::printf("error: %s\n", matches.status().ToString().c_str());
        continue;
      }
      std::printf("  %zu objects contain all keywords (%.2f ms, %llu block "
                  "reads)\n",
                  matches->size(), stats.seconds * 1000.0,
                  static_cast<unsigned long long>(stats.io.TotalReads()));
      continue;
    }
    if (command == "sizes") {
      std::printf("  object file %.1f MB | R-Tree %.1f | IR2 %.1f | "
                  "MIR2 %.1f | IIO %.1f\n",
                  db.ObjectFileBytes() / 1048576.0,
                  db.RTreeBytes() / 1048576.0, db.Ir2TreeBytes() / 1048576.0,
                  db.Mir2TreeBytes() / 1048576.0, db.IioBytes() / 1048576.0);
      continue;
    }

    if (command == "rank") {
      ir2::GeneralQuery query;
      double x, y;
      if (!(args >> query.k >> x >> y >> query.ir_weight >>
            query.distance_weight)) {
        Help();
        continue;
      }
      query.point = ir2::Point(x, y);
      std::string keyword;
      while (args >> keyword) query.keywords.push_back(keyword);
      ir2::QueryStats stats;
      auto results = db.QueryGeneral(query, &stats);
      if (results.ok()) {
        PrintResults(*results, stats);
      } else {
        std::printf("error: %s\n", results.status().ToString().c_str());
      }
      continue;
    }

    ir2::DistanceFirstQuery query;
    if (command == "area") {
      double x1, y1, x2, y2;
      if (!(args >> query.k >> x1 >> y1 >> x2 >> y2)) {
        Help();
        continue;
      }
      query.area = ir2::Rect(
          ir2::Point(std::min(x1, x2), std::min(y1, y2)),
          ir2::Point(std::max(x1, x2), std::max(y1, y2)));
    } else if (command == "top" || command == "rtree" || command == "iio" ||
               command == "mir2") {
      double x, y;
      if (!(args >> query.k >> x >> y)) {
        Help();
        continue;
      }
      query.point = ir2::Point(x, y);
    } else {
      Help();
      continue;
    }
    std::string keyword;
    while (args >> keyword) query.keywords.push_back(keyword);

    ir2::QueryStats stats;
    ir2::StatusOr<std::vector<ir2::QueryResult>> results =
        command == "rtree"  ? db.Query(query, ir2::Algorithm::kRTree, &stats)
        : command == "iio"  ? db.Query(query, ir2::Algorithm::kIio, &stats)
        : command == "mir2" ? db.Query(query, ir2::Algorithm::kMir2, &stats)
                            : db.Query(query, ir2::Algorithm::kIr2, &stats);
    if (results.ok()) {
      PrintResults(*results, stats);
    } else {
      std::printf("error: %s\n", results.status().ToString().c_str());
    }
  }
  std::printf("\nbye\n");
  return 0;
}
