#include "core/batch_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/database.h"
#include "obs/metrics.h"
#include "rtree/rtree_base.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"

namespace ir2 {

QueryStats BatchResults::Aggregate() const {
  QueryStats total;
  for (const QueryStats& stats : per_query) {
    total += stats;
  }
  return total;
}

BatchExecutor::BatchExecutor(SpatialKeywordDatabase* db,
                             BatchExecutorOptions options)
    : db_(db), options_(options) {
  IR2_CHECK(db != nullptr);
}

StatusOr<BatchResults> BatchExecutor::Run(
    std::span<const DistanceFirstQuery> queries) const {
  BatchResults out;
  out.results.resize(queries.size());
  out.per_query.resize(queries.size());
  if (queries.empty()) {
    return out;
  }
  if (db_->options().prefetch) {
    // A shared caching object/IIO pool would leak one worker's reads into
    // another's cold profile; workers need the bypass pools.
    return Status::InvalidArgument("BatchExecutor requires prefetch off");
  }
  QueryPlanner* planner = db_->planner();
  if (options_.algorithm == Algorithm::kAuto && planner == nullptr) {
    return Status::FailedPrecondition("Planner was not built");
  }

  const ObjectStore& objects = db_->object_store();
  // Trees get worker-private pools (node reads are the contended hot
  // path); object and posting reads go through the database's bypass
  // pools, which forward per-thread counts 1:1 to their devices.
  struct TreeCtx {
    RTreeBase* tree;
    BlockDevice* device;
  };
  std::vector<TreeCtx> trees;
  for (const auto& [structure, tree] : db_->Trees()) {
    if (tree != nullptr) {
      trees.push_back(TreeCtx{tree, tree->pool()->device()});
    }
  }
  // Per-thread I/O accounting and cold cursor resets cover every distinct
  // device a query of any algorithm can touch.
  std::vector<BlockDevice*> devices;
  auto add_device = [&devices](BlockDevice* device) {
    if (device != nullptr &&
        std::find(devices.begin(), devices.end(), device) == devices.end()) {
      devices.push_back(device);
    }
  };
  add_device(objects.device());
  for (const TreeCtx& ctx : trees) {
    add_device(ctx.device);
  }
  if (db_->inverted_index() != nullptr) {
    add_device(db_->inverted_index()->device());
  }

  size_t num_threads = options_.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, queries.size());

  const DiskModel model(db_->options().disk_model);

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error = Status::Ok();
  std::mutex stats_mu;

  auto thread_io = [&devices]() {
    IoStats io;
    for (BlockDevice* device : devices) {
      io += device->thread_stats();
    }
    return io;
  };

  auto worker = [&]() {
    // One private pool per tree, routed via ScopedReadPool for the life of
    // the worker (the scopes unwind LIFO at worker exit).
    std::vector<std::unique_ptr<BufferPool>> local_pools;
    std::vector<std::unique_ptr<ScopedReadPool>> scopes;
    local_pools.reserve(trees.size());
    scopes.reserve(trees.size());
    for (const TreeCtx& ctx : trees) {
      local_pools.push_back(
          std::make_unique<BufferPool>(ctx.device, options_.pool_blocks));
      scopes.push_back(std::make_unique<ScopedReadPool>(
          ctx.tree, local_pools.back().get()));
    }
    Ir2QueryScratch scratch;
    BufferPoolStats pool_accum;
    // Worker-private feedback and metrics, merged once on drain.
    PlannerFeedback local_feedback;
    obs::MetricsRegistry local_metrics;
    obs::Counter* batch_queries = local_metrics.GetCounter(
        "ir2_batch_queries_total", "Queries completed by batch workers.");
    obs::Histogram* batch_latency = local_metrics.GetHistogram(
        "ir2_batch_query_latency_ms",
        "Per-query wall-clock latency inside batch workers (ms).");

    auto run_one = [&](const DistanceFirstQuery& query,
                       std::vector<QueryResult>* results,
                       QueryStats* stats) -> Status {
      if (options_.cold_queries) {
        for (const auto& pool : local_pools) {
          pool_accum += pool->Stats();
          IR2_RETURN_IF_ERROR(pool->Clear());
        }
        for (const TreeCtx& ctx : trees) {
          if (NodeCache* cache = ctx.tree->node_cache()) {
            cache->Clear();
          }
        }
        for (BlockDevice* device : devices) {
          device->ResetThreadCursor();
        }
      }
      Algorithm algo = options_.algorithm;
      QueryPlan plan;
      if (algo == Algorithm::kAuto) {
        // Zero-I/O planning; corrections come from the planner's (shared,
        // effectively frozen) feedback so every worker prices alike.
        plan = planner->Plan(query);
        if (!plan.has_choice) {
          return Status::FailedPrecondition(
              "No structure available to answer the query");
        }
        algo = plan.chosen;
      }
      const IoStats before = thread_io();
      Stopwatch watch;
      QueryStats local;
      // The database's own dispatch; prefetch is off here, so it wires no
      // schedulers and never sweeps the object file.
      IR2_ASSIGN_OR_RETURN(*results,
                           db_->Execute(algo, query, &local, &scratch));
      local.seconds = watch.ElapsedSeconds();
      local.io = thread_io() - before;
      // No speculation in batch mode: price the demand reads only, the
      // same figure a serial prefetch-off run reports.
      local.simulated_disk_ms = model.Ms(local.io);
      if (options_.algorithm == Algorithm::kAuto) {
        planner->RecordOutcome(plan, local.simulated_disk_ms,
                               &local_feedback);
      }
      *stats = local;
      return Status::Ok();
    };

    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries.size()) {
        break;
      }
      Status status = run_one(queries[i], &out.results[i], &out.per_query[i]);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) {
          first_error = std::move(status);
        }
        failed.store(true, std::memory_order_relaxed);
        break;
      }
      batch_queries->Add();
      batch_latency->Record(out.per_query[i].seconds * 1000.0);
    }
    for (const auto& pool : local_pools) {
      pool_accum += pool->Stats();
    }
    obs::MetricsRegistry::Global().MergeFrom(local_metrics);
    if (options_.algorithm == Algorithm::kAuto) {
      planner->feedback().MergeFrom(local_feedback);
    }
    // The ScopedReadPool overrides must unwind LIFO; a vector destroys
    // front-to-back, so pop them explicitly.
    while (!scopes.empty()) {
      scopes.pop_back();
    }
    std::lock_guard<std::mutex> lock(stats_mu);
    out.pool_stats += pool_accum;
  };

  if (num_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  if (!first_error.ok()) {
    return first_error;
  }
  return out;
}

}  // namespace ir2
