#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ir2 {

namespace {

// One shard per this many blocks of capacity when auto-sharding, so small
// deterministic pools stay a single LRU.
constexpr size_t kBlocksPerAutoShard = 64;
constexpr size_t kMaxAutoShards = 16;

size_t PickShardCount(size_t capacity_blocks, size_t requested) {
  if (capacity_blocks == 0) {
    return 0;  // Bypass mode keeps no shards at all.
  }
  size_t shards = requested;
  if (shards == 0) {
    shards = std::min(kMaxAutoShards, capacity_blocks / kBlocksPerAutoShard);
  }
  shards = std::max<size_t>(1, std::min(shards, capacity_blocks));
  return shards;
}

}  // namespace

BufferPool::BufferPool(BlockDevice* device, size_t capacity_blocks,
                       size_t num_shards)
    : BlockDevice(device->block_size()),
      device_(device),
      capacity_(capacity_blocks) {
  IR2_CHECK(device != nullptr);
  const size_t shards = PickShardCount(capacity_blocks, num_shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // Distribute the capacity evenly, earlier shards taking the remainder.
    shard->capacity = capacity_blocks / shards + (i < capacity_blocks % shards);
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  // Best-effort flush; callers that care about the status flush explicitly.
  Status s = FlushAll();
  (void)s;
}

BufferPool::Shard& BufferPool::ShardOf(BlockId id) {
  if (shards_.size() == 1) {
    return *shards_[0];
  }
  // Mix the id so contiguous block ranges (tree nodes span adjacent blocks)
  // spread across shards instead of marching through one.
  return *shards_[Mix64(id) % shards_.size()];
}

const BufferPool::Shard& BufferPool::ShardOf(BlockId id) const {
  return const_cast<BufferPool*>(this)->ShardOf(id);
}

BufferPool::Page& BufferPool::Touch(Shard& shard, LruList::iterator it) {
  shard.lru.splice(shard.lru.begin(), shard.lru, it);
  return shard.lru.front();
}

Status BufferPool::EvictIfFull(Shard& shard) {
  while (shard.lru.size() >= shard.capacity && !shard.lru.empty()) {
    Page& victim = shard.lru.back();
    if (victim.dirty) {
      IR2_RETURN_IF_ERROR(device_->Write(victim.id, victim.data.span()));
    }
    shard.index.erase(victim.id);
    shard.lru.pop_back();
    ++shard.evictions;
    obs::DefaultMetrics().pool_evictions->Add();
  }
  return Status::Ok();
}

bool BufferPool::Contains(BlockId id) const {
  if (capacity_ == 0) {
    return false;
  }
  const Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.find(id) != shard.index.end();
}

void BufferPool::ServeHit(Shard& shard, LruList::iterator it,
                          std::span<uint8_t> out) {
  ++shard.hits;
  obs::DefaultMetrics().pool_hits->Add();
  Page& page = Touch(shard, it);
  if (!out.empty()) {
    std::memcpy(out.data(), page.data.data(), block_size());
  }
}

Status BufferPool::ReadImpl(BlockId id, std::span<uint8_t> out) {
  if (capacity_ != 0) {
    // The commonest read, a resident block, skips the run machinery
    // (measurably cheaper per hit); any other block is a run of one.
    Shard& shard = ShardOf(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(id);
    if (it != shard.index.end() && it->second->filling == 0) {
      ServeHit(shard, it->second, out);
      return Status::Ok();
    }
  }
  return ReadBlocksImpl(id, 1, std::span<const std::span<uint8_t>>(&out, 1));
}

Status BufferPool::ReadBlocksImpl(BlockId first, uint32_t count,
                                  std::span<const std::span<uint8_t>> outs) {
  if (capacity_ == 0) {
    // Bypass mode still waits on the device; trace it like a miss but
    // leave the hit/miss metrics alone (Stats() does not count bypass).
    obs::TraceSpan span(obs::SpanKind::kDemandIoWait, first,
                        !obs::SpeculativeThreadFlag());
    return device_->ReadBlocks(first, count, outs);
  }
  // Walk the run in block order, as `count` single-block reads would: a
  // resident block is a hit; a missing one is a miss that evicts and claims
  // a page at once, so a later block of the run that this eviction pushes
  // out is a miss in turn. A claimed page carries this call's ticket and no
  // data; its frame stays in `frames` until FillClaims reads it, with no
  // shard lock held, into the (4096-aligned) frame — a direct-I/O device
  // then DMAs straight into the cached frame. The ticket, like both
  // vectors, is taken on the first miss, so a hit touches no shared state
  // beyond its shard.
  uint64_t ticket = 0;
  std::vector<AlignedFrame> frames;
  std::vector<std::span<uint8_t>> spans;  // frames[i].span(), for the device.
  for (uint32_t i = 0; i < count; ++i) {
    const BlockId id = first + i;
    Shard& shard = ShardOf(id);
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.index.find(id);
    if (it != shard.index.end() && it->second->filling != 0) {
      // Another call is reading this block. Fill this call's own claims
      // first — a call never waits while it holds unfilled claims, so two
      // calls cannot wait on each other — then wait for the page to land,
      // or to vanish (its read failed, or it was evicted first).
      lock.unlock();
      if (!frames.empty()) {
        IR2_RETURN_IF_ERROR(FillClaims(first, i, ticket, frames, spans, outs));
      }
      lock.lock();
      shard.filled.wait(lock, [&] {
        it = shard.index.find(id);
        return it == shard.index.end() || it->second->filling == 0;
      });
    }
    if (it != shard.index.end()) {
      ServeHit(shard, it->second,
               outs.empty() ? std::span<uint8_t>() : outs[i]);
      continue;
    }
    ++shard.misses;
    obs::DefaultMetrics().pool_misses->Add();
    Status evicted = EvictIfFull(shard);
    if (!evicted.ok()) {
      lock.unlock();
      if (!frames.empty()) {
        Status filled = FillClaims(first, i, ticket, frames, spans, outs);
        (void)filled;
      }
      return evicted;
    }
    if (frames.empty()) {
      ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
      frames.resize(count);
      spans.resize(count);
    }
    shard.lru.push_front(Page{id, /*dirty=*/false, ticket, AlignedFrame()});
    shard.index[id] = shard.lru.begin();
    ++shard.reading[id];
    frames[i] = AlignedFrame(block_size());
    spans[i] = frames[i].span();
  }
  if (frames.empty()) {
    return Status::Ok();
  }
  return FillClaims(first, count, ticket, frames, spans, outs);
}

Status BufferPool::FillClaims(BlockId first, uint32_t end, uint64_t ticket,
                              std::span<AlignedFrame> frames,
                              std::span<const std::span<uint8_t>> spans,
                              std::span<const std::span<uint8_t>> outs) {
  Status status = Status::Ok();
  for (uint32_t i = 0; i < end;) {
    if (frames[i].data() == nullptr) {  // A hit, or already filled.
      ++i;
      continue;
    }
    uint32_t j = i + 1;
    while (j < end && frames[j].data() != nullptr) ++j;
    if (status.ok()) {
      obs::TraceSpan span(obs::SpanKind::kDemandIoWait, first + i,
                          !obs::SpeculativeThreadFlag());
      status = device_->ReadBlocks(first + i, j - i, spans.subspan(i, j - i));
    }
    for (uint32_t k = i; k < j; ++k) {
      if (status.ok() && !outs.empty()) {
        std::memcpy(outs[k].data(), frames[k].data(), block_size());
      }
      Publish(first + k, ticket,
              status.ok() ? std::move(frames[k]) : AlignedFrame());
      frames[k] = AlignedFrame();
    }
    i = j;
  }
  return status;
}

void BufferPool::Publish(BlockId id, uint64_t ticket, AlignedFrame frame) {
  Shard& shard = ShardOf(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (--shard.reading[id] == 0) shard.reading.erase(id);
    auto it = shard.index.find(id);
    if (it != shard.index.end() && it->second->filling == ticket) {
      if (frame.data() != nullptr) {
        it->second->data = std::move(frame);
        it->second->filling = 0;
      } else {
        shard.lru.erase(it->second);
        shard.index.erase(it);
      }
    }
  }
  shard.filled.notify_all();
}

Status BufferPool::WriteImpl(BlockId id, std::span<const uint8_t> data) {
  if (capacity_ == 0) {
    return device_->Write(id, data);
  }
  Shard& shard = ShardOf(id);
  std::unique_lock<std::mutex> lock(shard.mu);
  // Wait out any device read of this block still in flight (its page is
  // filling, or was evicted while filling): the device then never sees a
  // read and a write of one block at once, and a page is never dirty while
  // a read of its block is in flight.
  shard.filled.wait(lock, [&] { return shard.reading.count(id) == 0; });
  auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    Page& page = Touch(shard, it->second);
    std::memcpy(page.data.data(), data.data(), block_size());
    page.dirty = true;
    return Status::Ok();
  }
  IR2_RETURN_IF_ERROR(EvictIfFull(shard));
  shard.lru.push_front(Page{id, /*dirty=*/true, /*filling=*/0,
                            AlignedFrame(data)});
  shard.index[id] = shard.lru.begin();
  return Status::Ok();
}

StatusOr<BlockId> BufferPool::Allocate(uint32_t count) {
  return device_->Allocate(count);
}

Status BufferPool::FlushAll() {
  // Hold every shard lock (always acquired in index order, so concurrent
  // FlushAll/Clear cannot deadlock) and flush in ascending block order so
  // flush I/O is mostly sequential, as a real write-back cache would
  // schedule it.
  for (auto& shard : shards_) shard->mu.lock();
  std::vector<Page*> dirty;
  for (auto& shard : shards_) {
    for (Page& page : shard->lru) {
      if (page.dirty) dirty.push_back(&page);
    }
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const Page* a, const Page* b) { return a->id < b->id; });
  Status status = Status::Ok();
  for (Page* page : dirty) {
    status = device_->Write(page->id, page->data.span());
    if (!status.ok()) break;
    page->dirty = false;
  }
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    (*it)->mu.unlock();
  }
  return status;
}

Status BufferPool::Clear() {
  IR2_RETURN_IF_ERROR(FlushAll());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->hits = 0;
    shard->misses = 0;
    shard->evictions = 0;
  }
  return Status::Ok();
}

void BufferPool::ResetThreadCursor() {
  BlockDevice::ResetThreadCursor();
  device_->ResetThreadCursor();
}

void BufferPool::ResetStats() {
  BlockDevice::ResetStats();
  device_->ResetStats();
}

BufferPoolStats BufferPool::Stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.evictions += shard->evictions;
  }
  return total;
}

}  // namespace ir2
