#ifndef IR2TREE_IR2TREE_H_
#define IR2TREE_IR2TREE_H_

// Umbrella header: the public API of the IR2-Tree library.
//
//   #include "ir2tree.h"
//
//   auto db = ir2::SpatialKeywordDatabase::Build(objects, options).value();
//   auto results = db->Query({.point = {30.5, 100.0},
//                              .keywords = {"internet", "pool"},
//                              .k = 2},
//                             ir2::Algorithm::kIr2).value();
//
// Lower-level building blocks (trees, cursors, devices) are included for
// callers that need them; see README.md for the architecture map.

#include "core/database.h"        // SpatialKeywordDatabase facade.
#include "core/general_search.h"  // General ranking-function top-k.
#include "core/hybrid_index.h"    // Related-work separate-indexes baseline.
#include "core/iio.h"             // Inverted-index-only baseline.
#include "core/ir2_search.h"      // Distance-first top-k (+ cursor).
#include "core/ir2_tree.h"        // The IR2-Tree.
#include "core/mir2_tree.h"       // The Multilevel IR2-Tree.
#include "core/query.h"           // Query/result/stats types.
#include "core/rtree_baseline.h"  // Plain R-Tree baseline.
#include "datagen/synthetic.h"    // Synthetic dataset generators.
#include "datagen/workload.h"     // Query workload generators.
#include "rtree/incremental_nn.h" // Hjaltason-Samet incremental NN.
#include "rtree/knn.h"            // Branch-and-bound kNN.
#include "rtree/rtree.h"          // Plain R-Tree.
#include "rtree/search.h"         // Range queries.
#include "rtree/tree_stats.h"     // Structure introspection.
#include "storage/block_device.h" // Disk simulation + I/O accounting.
#include "text/inverted_index.h"  // Disk-resident inverted index.
#include "text/ir_score.h"        // Pivoted tf-idf scoring.
#include "text/signature.h"       // Superimposed-coding signatures.
#include "text/tokenizer.h"       // Tokenization + stopwords.

#endif  // IR2TREE_IR2TREE_H_
