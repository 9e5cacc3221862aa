#ifndef IR2TREE_STORAGE_BUFFER_POOL_H_
#define IR2TREE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "storage/block_device.h"

namespace ir2 {

// Alignment of every cached page frame. Matches the O_DIRECT transfer
// alignment (block_device.cc): a direct-I/O pread can then land in the
// frame itself, instead of bouncing through the per-thread staging buffer
// and paying an extra memcpy per miss. For buffered and memory devices the
// alignment is inert — contents and behaviour are byte-identical.
inline constexpr size_t kPageFrameAlignment = 4096;

// Fixed-size page-aligned byte buffer (the pool's frame storage). Move-only;
// the frame owns its allocation.
class AlignedFrame {
 public:
  AlignedFrame() = default;
  explicit AlignedFrame(size_t size) : size_(size) {
    if (size_ == 0) return;
    void* p = nullptr;
    if (::posix_memalign(&p, kPageFrameAlignment, size_) != 0) p = nullptr;
    data_ = static_cast<uint8_t*>(p);
    IR2_CHECK(data_ != nullptr);
  }
  AlignedFrame(std::span<const uint8_t> contents)
      : AlignedFrame(contents.size()) {
    if (size_ != 0) std::memcpy(data_, contents.data(), size_);
  }
  ~AlignedFrame() { std::free(data_); }

  AlignedFrame(AlignedFrame&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  AlignedFrame& operator=(AlignedFrame&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  AlignedFrame(const AlignedFrame&) = delete;
  AlignedFrame& operator=(const AlignedFrame&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  std::span<uint8_t> span() { return {data_, size_}; }
  std::span<const uint8_t> span() const { return {data_, size_}; }

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// Counter snapshot of a BufferPool. Counters accumulate from construction
// (or the last Clear(), which resets them — a Clear starts a new cold
// measurement epoch, so its counters describe exactly that epoch).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  // Pages pushed out by capacity pressure (dirty victims are written back
  // to the device first; see EvictionWritesDirtyVictims in storage_test).
  uint64_t evictions = 0;

  BufferPoolStats& operator+=(const BufferPoolStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    return *this;
  }

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

// Sharded write-back LRU page cache in front of a BlockDevice — itself a
// BlockDevice, so it stacks: readers address the pool exactly like a raw
// device, and the inherited per-thread accounting now exists at *two*
// levels with distinct meanings:
//
//   pool.thread_stats()      logical block requests this thread issued
//                            (demand I/O, independent of cache state and of
//                            any prefetching — what QueryStats.demand_io
//                            reports),
//   device->thread_stats()   physical accesses that actually reached the
//                            backing device (what QueryStats.io reports).
//
// Index structures read and write through the pool; pages cached here do
// not touch the device and therefore do not count as physical disk
// accesses. Query benchmarks call Clear() before each query so every query
// starts cold, the regime the paper measures — in that regime every logical
// request misses, so the two levels agree exactly. Index construction keeps
// the pool warm, which makes building the 100k+ object indexes fast.
//
// Thread-safety: the pool is safe for concurrent use. Pages are partitioned
// into N shards by a hash of their BlockId; each shard has its own mutex,
// LRU list and capacity (capacity_blocks / N), so threads touching different
// shards never contend. Because every access to a given block always lands
// in the same shard, its lock decides which of two racing reads of a missing
// block claims it; the claimer reads the device with no lock held, and the
// other waits for the claimed page to be filled and then hits (an
// IoScheduler prefetch and a demand read racing for one block perform
// exactly one device read between them). A write of a block waits until
// no device read of it is in flight. LRU order and eviction are per shard.
//
// Reads go through the inherited Read / ReadBlocks. A ReadBlocks run moves
// every counter — this pool's logical accounting, hits, misses, evictions,
// LRU order and the device's physical accounting — exactly as one Read per
// block would, but each maximal sub-run of missing blocks reaches the
// device as one ReadBlocks request. With no buffers the run only lands in
// the pool (a prefetch). A bypass pool (capacity 0) passes the whole run to
// the device as one request.
//
// Pages are copied in and out rather than pinned; for a simulator the copy
// cost is irrelevant and it rules out dangling page pointers by construction.
class BufferPool : public BlockDevice {
 public:
  // `device` must outlive the pool. `capacity_blocks` == 0 disables caching
  // entirely (every access goes to the device). `num_shards` == 0 picks
  // automatically: one shard per 64 blocks of capacity, at most 16 — small
  // pools (including the deterministic single-LRU pools used in tests) stay
  // unsharded, large concurrent pools spread their locks.
  BufferPool(BlockDevice* device, size_t capacity_blocks,
             size_t num_shards = 0);
  ~BufferPool() override;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Allocates contiguous blocks on the underlying device.
  StatusOr<BlockId> Allocate(uint32_t count) override;

  uint64_t NumBlocks() const override { return device_->NumBlocks(); }

  // True when `id` is resident in the cache. Touches no counters and no LRU
  // state — used by IoScheduler to skip prefetching already-cached blocks.
  bool Contains(BlockId id) const;

  // Writes all dirty pages back to the device (ascending block order, so
  // flush I/O is mostly sequential). Takes every shard lock.
  Status FlushAll();

  // Flushes, then drops every cached page and resets the hit/miss/eviction
  // counters: the next access of any block hits the device and Stats()
  // describes only the epoch after the Clear. Use before a measured query
  // to simulate a cold cache. (The inherited per-thread request counters
  // are NOT touched — demand accounting spans epochs like device
  // accounting does.)
  Status Clear();

  // Durability barrier through the pool: flushes every dirty page, then
  // syncs the backing device.
  Status Sync() override {
    Status flushed = FlushAll();
    if (!flushed.ok()) return flushed;
    return device_->Sync();
  }

  // Resets the calling thread's cursor at both levels — the pool's logical
  // cursor and the backing device's physical cursor — so the next access is
  // classified as random end to end, the state a cold query starts from.
  void ResetThreadCursor() override;

  // Zeroes both levels' counters and cursors.
  void ResetStats() override;

  BlockDevice* device() { return device_; }
  size_t num_shards() const { return shards_.size(); }

  // Counter snapshot summed over all shards. Exact when no access is
  // concurrently in flight.
  BufferPoolStats Stats() const;

  uint64_t hits() const { return Stats().hits; }
  uint64_t misses() const { return Stats().misses; }

 protected:
  // Cache lookup/fill behind the inherited accounting wrappers. ReadImpl
  // serves a hit itself and is otherwise a run of one.
  Status ReadImpl(BlockId id, std::span<uint8_t> out) override;
  Status ReadBlocksImpl(BlockId first, uint32_t count,
                        std::span<const std::span<uint8_t>> outs) override;
  Status WriteImpl(BlockId id, std::span<const uint8_t> data) override;

 private:
  struct Page {
    BlockId id;
    bool dirty;
    // Nonzero while the ReadBlocksImpl call holding this ticket reads the
    // block from the device; `data` is empty until it lands.
    uint64_t filling;
    AlignedFrame data;
  };
  using LruList = std::list<Page>;

  struct Shard {
    mutable std::mutex mu;
    // Signalled whenever a claimed read of this shard lands or is dropped.
    std::condition_variable filled;
    size_t capacity = 0;
    LruList lru;  // Front = most recently used.
    std::unordered_map<BlockId, LruList::iterator> index;
    // Device reads in flight per block: one per claim not yet published,
    // whether or not its page is still in the index.
    std::unordered_map<BlockId, uint32_t> reading;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardOf(BlockId id);
  const Shard& ShardOf(BlockId id) const;

  // Moves the page to the MRU position and returns it. Caller holds the
  // shard lock.
  static Page& Touch(Shard& shard, LruList::iterator it);
  // Counts a hit on the resident, filled page `it`, touches it and copies
  // it to `out` (when given). Caller holds the shard lock.
  void ServeHit(Shard& shard, LruList::iterator it, std::span<uint8_t> out);
  // Evicts LRU pages until there is room for one more. Caller holds the
  // shard lock. A filling victim just leaves the index; its reader keeps
  // the frame and drops it when the read lands.
  Status EvictIfFull(Shard& shard);
  // Reads the blocks claimed under `ticket` among [first, first + end) —
  // those whose frames[i] still holds a frame — with one device ReadBlocks
  // per maximal claimed sub-run and no shard lock held, copies them to
  // `outs` (when given) and hands each frame to its page. After a failed
  // request the remaining claims are withdrawn unread.
  Status FillClaims(BlockId first, uint32_t end, uint64_t ticket,
                    std::span<AlignedFrame> frames,
                    std::span<const std::span<uint8_t>> spans,
                    std::span<const std::span<uint8_t>> outs);
  // Lands `frame` in the page of `id` if `ticket` still fills it, or drops
  // the page when `frame` is empty (a failed read); wakes the shard's
  // waiters either way.
  void Publish(BlockId id, uint64_t ticket, AlignedFrame frame);

  BlockDevice* device_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_ticket_{0};
};

}  // namespace ir2

#endif  // IR2TREE_STORAGE_BUFFER_POOL_H_
