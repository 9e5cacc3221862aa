#ifndef IR2TREE_CORE_BATCH_EXECUTOR_H_
#define IR2TREE_CORE_BATCH_EXECUTOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "core/ir2_search.h"
#include "core/planner.h"
#include "core/query.h"
#include "storage/buffer_pool.h"

namespace ir2 {

class SpatialKeywordDatabase;

struct BatchExecutorOptions {
  // Worker threads; 0 picks std::thread::hardware_concurrency(). Capped at
  // the number of queries.
  size_t num_threads = 1;

  // Clear the worker's private pool and reset its device cursors before
  // every query, so each query is measured from a cold disk — the same
  // regime as DatabaseOptions::cold_queries. With this set, a query's
  // QueryStats (including its IoStats) are a pure function of the query and
  // the index, independent of batch order and thread count.
  bool cold_queries = true;

  // Capacity (blocks) of each worker's private node cache. Matches
  // DatabaseOptions::pool_blocks so batch and serial runs cache alike.
  size_t pool_blocks = 1 << 16;

  // Algorithm every query runs with. kAuto plans per query: workers read
  // corrections from the planner's feedback — effectively frozen for the
  // batch, keeping decisions independent of thread count and arrival
  // order — and record outcomes into worker-private PlannerFeedback
  // instances merged into the planner once on drain, exactly like the
  // private metrics registries.
  Algorithm algorithm = Algorithm::kAuto;
};

// Everything a Run produces: results[i] and per_query[i] answer queries[i],
// in the order the queries were given, whatever order they executed in.
struct BatchResults {
  std::vector<std::vector<QueryResult>> results;
  std::vector<QueryStats> per_query;

  // Page-cache counters summed over every worker's private pool for the
  // whole batch (across cold-query Clear() epochs, which reset the pools'
  // own counters).
  BufferPoolStats pool_stats;

  // Sum over per_query. `seconds` is summed per-query work time (CPU-side
  // wall clock of each query), not batch elapsed time.
  QueryStats Aggregate() const;
};

// Runs a batch of distance-first queries over a SpatialKeywordDatabase with
// a fixed pool of worker threads, each query executed by options.algorithm
// (kAuto: planned per query by the database's planner) through the
// database's own dispatch, SpatialKeywordDatabase::Execute.
//
// The database's structures are shared read-only. Each worker opens a
// *private* BufferPool over every tree's device and routes its node reads
// through it with a ScopedReadPool, so workers never contend on a shared
// node cache and — with cold_queries — every query sees exactly the cache
// state a serial cold run would give it. Object and posting reads go
// through the database's bypass pools, which is why Run requires
// db->options().prefetch == false (a shared caching pool would break
// per-query cold isolation across workers). Per-query I/O is attributed
// through the devices' per-thread counters (BlockDevice::thread_stats), so
// concurrent workers never bleed into each other's IoStats.
//
// Queries are claimed from a shared atomic index (dynamic load balancing);
// results land at the query's original position. The first query error
// aborts the batch and is returned.
class BatchExecutor {
 public:
  // `db` must outlive the executor; under kAuto its planner receives the
  // workers' merged feedback after Run.
  explicit BatchExecutor(SpatialKeywordDatabase* db,
                         BatchExecutorOptions options = {});

  StatusOr<BatchResults> Run(std::span<const DistanceFirstQuery> queries) const;

  const BatchExecutorOptions& options() const { return options_; }

 private:
  SpatialKeywordDatabase* db_;
  BatchExecutorOptions options_;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_BATCH_EXECUTOR_H_
