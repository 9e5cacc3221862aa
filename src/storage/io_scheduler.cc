#include "storage/io_scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ir2 {

IoScheduler::IoScheduler(BufferPool* pool, IoSchedulerOptions options)
    : pool_(pool), options_(options) {
  IR2_CHECK(pool != nullptr);
  if (options_.max_run_blocks == 0) {
    options_.max_run_blocks = 1;
  }
}

IoScheduler::~IoScheduler() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    work_cv_.notify_all();
  }
  if (worker_.joinable()) {
    worker_.join();
  }
}

void IoScheduler::EnsureWorkerLocked() {
  if (!worker_started_) {
    worker_started_ = true;
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

void IoScheduler::KickLocked(std::unique_lock<std::mutex>& lock) {
  EnsureWorkerLocked();
  work_cv_.notify_one();
  if (options_.synchronous) {
    idle_cv_.wait(lock,
                  [this] { return pending_.empty() && in_flight_.empty(); });
  }
}

void IoScheduler::PrefetchRange(BlockId first, uint32_t count) {
  if (count == 0) {
    return;
  }
  const uint64_t num_blocks = pool_->NumBlocks();
  if (first >= num_blocks) {
    return;
  }
  const BlockId end = std::min<uint64_t>(first + count, num_blocks);
  std::unique_lock<std::mutex> lock(mu_);
  bool added = false;
  for (BlockId id = first; id < end; ++id) {
    ++counters_.requested;
    if (pending_.size() >= options_.max_pending ||
        pending_.count(id) != 0 || in_flight_.count(id) != 0 ||
        pool_->Contains(id)) {
      ++counters_.deduped;
      continue;
    }
    pending_.insert(id);
    added = true;
  }
  if (added) {
    KickLocked(lock);
  }
}

void IoScheduler::PrefetchBatch(std::span<const BlockId> ids) {
  if (ids.empty()) {
    return;
  }
  const uint64_t num_blocks = pool_->NumBlocks();
  std::unique_lock<std::mutex> lock(mu_);
  bool added = false;
  for (BlockId id : ids) {
    ++counters_.requested;
    if (id >= num_blocks || pending_.size() >= options_.max_pending ||
        pending_.count(id) != 0 || in_flight_.count(id) != 0 ||
        pool_->Contains(id)) {
      ++counters_.deduped;
      continue;
    }
    pending_.insert(id);
    added = true;
  }
  if (added) {
    KickLocked(lock);
  }
}

Status IoScheduler::ReadRun(BlockId first, uint32_t count,
                            std::span<uint8_t> out) {
  const size_t block_size = pool_->block_size();
  if (out.size() != static_cast<size_t>(count) * block_size) {
    return Status::InvalidArgument("ReadRun buffer size mismatch");
  }
  std::vector<std::span<uint8_t>> blocks(count);
  for (uint32_t i = 0; i < count; ++i) {
    blocks[i] = out.subspan(static_cast<size_t>(i) * block_size, block_size);
  }
  return pool_->ReadBlocks(first, count, blocks);
}

Status IoScheduler::ReadRun(BlockId first, uint32_t count,
                            std::vector<uint8_t>* out) {
  out->resize(static_cast<size_t>(count) * pool_->block_size());
  return ReadRun(first, count, std::span<uint8_t>(*out));
}

void IoScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [this] { return pending_.empty() && in_flight_.empty(); });
}

IoStats IoScheduler::speculative_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return speculative_;
}

IoSchedulerStats IoScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void IoScheduler::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  speculative_ = IoStats{};
  counters_ = IoSchedulerStats{};
}

Status IoScheduler::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

void IoScheduler::WorkerLoop() {
  obs::SpeculativeThreadFlag() = true;
  BlockDevice* device = pool_->device();
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      // stop_ set and queue drained: shutdown complete.
      return;
    }
    // Claim the whole pending set. Keeping it visible as in_flight_ lets
    // Prefetch* dedup against blocks this pass is about to read.
    in_flight_.swap(pending_);
    // Copy out the sorted ids so the reads can run unlocked.
    std::vector<BlockId> ids(in_flight_.begin(), in_flight_.end());
    lock.unlock();

    // Greedy coalescing: from the first id not yet in a run, the longest
    // adjacent ascending run, capped at max_run_blocks. This one thread
    // reads the runs in ascending order with one device cursor, so a run
    // that continues its predecessor counts as sequential.
    const IoStats before = device->thread_stats();
    size_t runs = 0;
    Status error = Status::Ok();
    for (size_t i = 0; i < ids.size(); ++runs) {
      size_t j = i + 1;
      while (j < ids.size() && ids[j] == ids[j - 1] + 1 &&
             j - i < options_.max_run_blocks) {
        ++j;
      }
      obs::TraceSpan span(obs::SpanKind::kPrefetchComplete, ids[i]);
      Status s = pool_->ReadBlocks(ids[i], static_cast<uint32_t>(j - i));
      if (!s.ok()) {
        obs::DefaultMetrics().sched_read_errors->Add();
        if (error.ok()) error = s;
      }
      i = j;
    }
    const IoStats pass_io = device->thread_stats() - before;
    obs::DefaultMetrics().sched_runs->Add(runs);
    obs::DefaultMetrics().sched_blocks_fetched->Add(ids.size());
    if (!error.ok()) {
      // Speculation failing is not a query error (demand reads will retry
      // and surface their own Status), but it should never be silent.
      IR2_LOG(ERROR) << "IoScheduler worker: prefetch read failed: "
                     << error.ToString();
    }

    lock.lock();
    speculative_ += pass_io;
    counters_.runs += runs;
    counters_.blocks_fetched += ids.size();
    if (!error.ok() && last_error_.ok()) {
      last_error_ = error;
    }
    in_flight_.clear();
    idle_cv_.notify_all();
  }
}

}  // namespace ir2
