#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "storage/serializer.h"

namespace ir2 {
namespace {

TEST(SerializerTest, RoundTripAllWidths) {
  std::vector<uint8_t> buffer(64);
  BufferWriter writer(buffer);
  writer.PutU8(0xab);
  writer.PutU16(0xbeef);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefULL);
  writer.PutDouble(-1234.5e-6);
  BufferReader reader(buffer);
  EXPECT_EQ(reader.GetU8(), 0xab);
  EXPECT_EQ(reader.GetU16(), 0xbeef);
  EXPECT_EQ(reader.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.GetDouble(), -1234.5e-6);
}

TEST(SerializerTest, LittleEndianOnDisk) {
  uint8_t buf[4];
  EncodeU32(0x01020304u, buf);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(MemoryBlockDeviceTest, AllocateReadWrite) {
  MemoryBlockDevice device(512);
  EXPECT_EQ(device.NumBlocks(), 0u);
  BlockId id = device.Allocate(3).value();
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(device.NumBlocks(), 3u);

  std::vector<uint8_t> data(512, 0x5a);
  ASSERT_TRUE(device.Write(1, data).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(device.Read(1, out).ok());
  EXPECT_EQ(out, data);
  // Fresh blocks are zero-filled.
  ASSERT_TRUE(device.Read(2, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

TEST(MemoryBlockDeviceTest, BoundsAndSizeChecks) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(1).value();
  std::vector<uint8_t> wrong(256);
  EXPECT_EQ(device.Read(0, wrong).code(), StatusCode::kInvalidArgument);
  std::vector<uint8_t> right(512);
  EXPECT_EQ(device.Read(5, right).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(device.Write(5, right).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(device.Allocate(0).ok());
}

TEST(MemoryBlockDeviceTest, RandomVsSequentialAccounting) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(10).value();
  std::vector<uint8_t> buf(512);
  // 0 (random), 1, 2 (sequential), 7 (random), 8 (sequential), 8 (random:
  // re-read of the same block is a seek back).
  for (BlockId id : {0, 1, 2, 7, 8, 8}) {
    ASSERT_TRUE(device.Read(id, buf).ok());
  }
  EXPECT_EQ(device.stats().random_reads, 3u);
  EXPECT_EQ(device.stats().sequential_reads, 3u);

  for (BlockId id : {3, 4, 0}) {
    ASSERT_TRUE(device.Write(id, buf).ok());
  }
  EXPECT_EQ(device.stats().random_writes, 2u);
  EXPECT_EQ(device.stats().sequential_writes, 1u);
}

TEST(MemoryBlockDeviceTest, ResetStatsForgetsCursor) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(4).value();
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(device.Read(0, buf).ok());
  ASSERT_TRUE(device.Read(1, buf).ok());
  device.ResetStats();
  // Block 2 would be sequential after 1; after reset it must count random.
  ASSERT_TRUE(device.Read(2, buf).ok());
  EXPECT_EQ(device.stats().random_reads, 1u);
  EXPECT_EQ(device.stats().sequential_reads, 0u);
}

TEST(IoStatsTest, Arithmetic) {
  IoStats a{10, 20, 3, 4};
  IoStats b{1, 2, 3, 4};
  IoStats sum = a + b;
  EXPECT_EQ(sum.random_reads, 11u);
  EXPECT_EQ(sum.TotalReads(), 33u);
  IoStats diff = sum - b;
  EXPECT_EQ(diff.random_reads, a.random_reads);
  EXPECT_EQ(diff.TotalAccesses(), a.TotalAccesses());
}

TEST(FileBlockDeviceTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/ir2_file_device_test.bin";
  {
    auto device = FileBlockDevice::Create(path, 512).value();
    (void)device->Allocate(2).value();
    std::vector<uint8_t> data(512);
    for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7);
    ASSERT_TRUE(device->Write(1, data).ok());
  }
  {
    auto device = FileBlockDevice::Open(path, 512).value();
    EXPECT_EQ(device->NumBlocks(), 2u);
    std::vector<uint8_t> out(512);
    ASSERT_TRUE(device->Read(1, out).ok());
    EXPECT_EQ(out[511], uint8_t(511 * 7));
  }
  std::remove(path.c_str());
}

TEST(BufferPoolTest, CachesReads) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(4).value();
  BufferPool pool(&device, 8);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Read(0, buf).ok());
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(device.stats().TotalReads(), 1u);
}

TEST(BufferPoolTest, WriteBackOnlyOnEvictionOrFlush) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(4).value();
  BufferPool pool(&device, 8);
  std::vector<uint8_t> data(512, 0x11);
  ASSERT_TRUE(pool.Write(2, data).ok());
  ASSERT_TRUE(pool.Write(2, data).ok());
  EXPECT_EQ(device.stats().TotalWrites(), 0u);  // Still buffered.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(device.stats().TotalWrites(), 1u);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(device.Read(2, out).ok());
  EXPECT_EQ(out, data);
}

TEST(BufferPoolTest, EvictionWritesDirtyVictims) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> data(512, 0x22);
  ASSERT_TRUE(pool.Write(0, data).ok());
  ASSERT_TRUE(pool.Write(1, data).ok());
  ASSERT_TRUE(pool.Write(2, data).ok());  // Evicts block 0.
  EXPECT_EQ(device.stats().TotalWrites(), 1u);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(device.Read(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(BufferPoolTest, LruOrderKeepsHotPages) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Read(1, buf).ok());
  ASSERT_TRUE(pool.Read(0, buf).ok());  // 0 is now MRU.
  ASSERT_TRUE(pool.Read(2, buf).ok());  // Evicts 1, not 0.
  device.ResetStats();
  ASSERT_TRUE(pool.Read(0, buf).ok());
  EXPECT_EQ(device.stats().TotalReads(), 0u);  // Still cached.
  ASSERT_TRUE(pool.Read(1, buf).ok());
  EXPECT_EQ(device.stats().TotalReads(), 1u);  // Was evicted.
}

TEST(BufferPoolTest, ClearMakesNextAccessCold) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(2).value();
  BufferPool pool(&device, 8);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Clear().ok());
  device.ResetStats();
  ASSERT_TRUE(pool.Read(0, buf).ok());
  EXPECT_EQ(device.stats().TotalReads(), 1u);
}

TEST(BufferPoolTest, ZeroCapacityBypassesCache) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(2).value();
  BufferPool pool(&device, 0);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Read(0, buf).ok());
  EXPECT_EQ(device.stats().TotalReads(), 2u);
}

TEST(BufferPoolTest, StatsCountEvictions) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> buf(512);
  for (BlockId id : {0, 1, 2, 3}) {
    ASSERT_TRUE(pool.Read(id, buf).ok());
  }
  BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);  // Blocks 0 and 1 were pushed out.
}

TEST(BufferPoolTest, ClearResetsStats) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> buf(512);
  for (BlockId id : {0, 0, 1, 2}) {
    ASSERT_TRUE(pool.Read(id, buf).ok());
  }
  EXPECT_GT(pool.Stats().hits + pool.Stats().misses, 0u);
  ASSERT_TRUE(pool.Clear().ok());
  BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(BufferPoolTest, AutoShardPolicyKeepsSmallPoolsUnsharded) {
  MemoryBlockDevice device(512);
  EXPECT_EQ(BufferPool(&device, 8).num_shards(), 1u);
  EXPECT_EQ(BufferPool(&device, 63).num_shards(), 1u);
  EXPECT_EQ(BufferPool(&device, 128).num_shards(), 2u);
  EXPECT_EQ(BufferPool(&device, 1 << 16).num_shards(), 16u);
  EXPECT_EQ(BufferPool(&device, 0).num_shards(), 0u);  // Bypass mode.
  // Explicit shard counts are honored but never exceed the capacity.
  EXPECT_EQ(BufferPool(&device, 8, /*num_shards=*/4).num_shards(), 4u);
  EXPECT_EQ(BufferPool(&device, 2, /*num_shards=*/4).num_shards(), 2u);
}

TEST(BufferPoolTest, ShardedPoolCachesAndWritesBack) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(64).value();
  // Each shard's capacity (256 / 4) can hold every block, so nothing is
  // evicted no matter how the hash distributes the 64 blocks over shards.
  BufferPool pool(&device, 256, /*num_shards=*/4);
  ASSERT_EQ(pool.num_shards(), 4u);
  std::vector<uint8_t> data(512);
  for (BlockId id = 0; id < 64; ++id) {
    std::fill(data.begin(), data.end(), static_cast<uint8_t>(id * 3 + 1));
    ASSERT_TRUE(pool.Write(id, data).ok());
  }
  EXPECT_EQ(device.stats().TotalWrites(), 0u);  // All still buffered.
  std::vector<uint8_t> out(512);
  for (BlockId id = 0; id < 64; ++id) {
    ASSERT_TRUE(pool.Read(id, out).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(id * 3 + 1));
  }
  EXPECT_EQ(pool.Stats().hits, 64u);  // Reads served from the shards.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(device.stats().TotalWrites(), 64u);
  for (BlockId id = 0; id < 64; ++id) {
    ASSERT_TRUE(device.Read(id, out).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(id * 3 + 1));
  }
}

TEST(BlockDeviceTest, ThreadStatsAttributePerThread) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(16).value();
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(device.Read(0, buf).ok());

  IoStats other_thread;
  std::thread worker([&device, &other_thread]() {
    std::vector<uint8_t> local(512);
    for (BlockId id : {5, 6, 7}) {
      ASSERT_TRUE(device.Read(id, local).ok());
    }
    other_thread = device.thread_stats();
  });
  worker.join();

  // The worker saw only its own 3 reads (1 random + 2 sequential) ...
  EXPECT_EQ(other_thread.random_reads, 1u);
  EXPECT_EQ(other_thread.sequential_reads, 2u);
  // ... this thread only its own 1, and the aggregate sees all 4.
  EXPECT_EQ(device.thread_stats().TotalReads(), 1u);
  EXPECT_EQ(device.stats().TotalReads(), 4u);
}

TEST(BlockDeviceTest, ThreadCursorsClassifyIndependently) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(16).value();
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(device.Read(4, buf).ok());
  // Another thread reading block 5 is NOT sequential: its own cursor is
  // fresh, so interleaved workers can't corrupt each other's access
  // pattern classification.
  std::thread worker([&device]() {
    std::vector<uint8_t> local(512);
    ASSERT_TRUE(device.Read(5, local).ok());
    EXPECT_EQ(device.thread_stats().random_reads, 1u);
    EXPECT_EQ(device.thread_stats().sequential_reads, 0u);
  });
  worker.join();
  // On this thread 5 would have been sequential after 4; cursor reset makes
  // it random again — the per-query cold-start contract.
  device.ResetThreadCursor();
  ASSERT_TRUE(device.Read(5, buf).ok());
  EXPECT_EQ(device.thread_stats().random_reads, 2u);
  EXPECT_EQ(device.thread_stats().sequential_reads, 0u);
}

TEST(BlockDeviceTest, ThreadCursorIsolation) {
  // The layered contract behind per-query cold starts and prefetch
  // accounting (block_device.h): one ResetThreadCursor on a BufferPool
  // restores the calling thread's whole stack — pool-level logical cursor
  // AND backing-device physical cursor — while a background thread's long
  // sequential sweep neither donates sequential credit to this thread nor
  // loses its own to the reset.
  MemoryBlockDevice device(512);
  (void)device.Allocate(32).value();
  BufferPool pool(&device, /*capacity_blocks=*/0);  // Bypass: both levels hit.

  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(10, buf).ok());
  ASSERT_TRUE(pool.Read(11, buf).ok());
  EXPECT_EQ(pool.thread_stats().sequential_reads, 1u);
  EXPECT_EQ(device.thread_stats().sequential_reads, 1u);

  // A "prefetch" thread sweeps right past this thread's cursor position.
  std::thread sweeper([&pool]() {
    std::vector<uint8_t> local(512);
    for (BlockId id = 8; id < 16; ++id) {
      ASSERT_TRUE(pool.Read(id, local).ok());
    }
    EXPECT_EQ(pool.thread_stats().random_reads, 1u);
    EXPECT_EQ(pool.thread_stats().sequential_reads, 7u);
  });
  sweeper.join();

  // The sweep ended at block 15, but this thread's cursors still sit at 11:
  // reading 12 stays sequential for *this* thread at both levels.
  ASSERT_TRUE(pool.Read(12, buf).ok());
  EXPECT_EQ(pool.thread_stats().sequential_reads, 2u);
  EXPECT_EQ(device.thread_stats().sequential_reads, 2u);

  // One pool-level reset cascades to the device: the next read is random
  // end to end even though it is adjacent to the last one.
  pool.ResetThreadCursor();
  ASSERT_TRUE(pool.Read(13, buf).ok());
  EXPECT_EQ(pool.thread_stats().random_reads, 2u);
  EXPECT_EQ(device.thread_stats().random_reads, 2u);
  EXPECT_EQ(pool.thread_stats().sequential_reads, 2u);
  EXPECT_EQ(device.thread_stats().sequential_reads, 2u);
}

// ---- Run reads: ReadBlocks (raw devices and pools) vs one Read per block ----

// Block `id`'s fill byte at offset `i`, distinct per block and position.
uint8_t PatternByte(BlockId id, size_t i) {
  return static_cast<uint8_t>(id * 131 + i * 7 + 1);
}

// Two devices of one kind with identical contents, so one can serve a run
// request and the other the same blocks one Read at a time.
class RunReadTest : public ::testing::TestWithParam<bool /*file*/> {
 protected:
  static constexpr size_t kBlockSize = 4096;
  static constexpr uint64_t kBlocks = IOV_MAX + 300;

  void SetUp() override {
    run_device_ = MakeDevice("run");
    loop_device_ = MakeDevice("loop");
  }
  void TearDown() override {
    run_device_.reset();
    loop_device_.reset();
    for (const std::string& path : paths_) std::filesystem::remove(path);
  }

  std::unique_ptr<BlockDevice> MakeDevice(const std::string& name) {
    std::unique_ptr<BlockDevice> device;
    if (GetParam()) {
      const std::string path =
          ::testing::TempDir() + "/ir2_run_read_" + name + ".dat";
      paths_.push_back(path);
      FileBlockDeviceOptions options;
      options.direct_io = true;
      device = FileBlockDevice::Create(path, kBlockSize, options).value();
    } else {
      device = std::make_unique<MemoryBlockDevice>(kBlockSize);
    }
    EXPECT_EQ(device->Allocate(kBlocks).value(), 0u);
    std::vector<uint8_t> block(kBlockSize);
    for (BlockId id = 0; id < kBlocks; ++id) {
      for (size_t i = 0; i < kBlockSize; ++i) block[i] = PatternByte(id, i);
      EXPECT_TRUE(device->Write(id, block).ok());
    }
    device->ResetStats();
    return device;
  }

  // Per-block views of `buffer` starting `skew` bytes in.
  static std::vector<std::span<uint8_t>> Blocks(std::span<uint8_t> buffer,
                                                size_t skew, uint32_t count) {
    std::vector<std::span<uint8_t>> blocks;
    for (uint32_t i = 0; i < count; ++i) {
      blocks.push_back(buffer.subspan(
          skew + static_cast<size_t>(i) * kBlockSize, kBlockSize));
    }
    return blocks;
  }

  static void ExpectPattern(std::span<const uint8_t> bytes, BlockId first) {
    for (size_t at = 0; at < bytes.size(); at += kBlockSize / 2 + 1) {
      ASSERT_EQ(bytes[at], PatternByte(first + at / kBlockSize,
                                       at % kBlockSize))
          << "byte " << at;
    }
  }

  // One Read per block of [first, first + count) on `device` into `out`.
  static Status ReadLoop(BlockDevice* device, BlockId first, uint32_t count,
                         std::span<uint8_t> out) {
    for (uint32_t i = 0; i < count; ++i) {
      IR2_RETURN_IF_ERROR(device->Read(
          first + i, out.subspan(static_cast<size_t>(i) * kBlockSize,
                                 kBlockSize)));
    }
    return Status::Ok();
  }

  // ReadBlocks on one device vs a Read loop on the other: same bytes, same
  // per-thread accounting, and the same cursor afterwards. Without `out`
  // the run is read into no buffer and only the accounting is compared.
  void ExpectDeviceRunMatchesLoop(BlockId first, uint32_t count, size_t skew,
                                  bool with_out = true) {
    SCOPED_TRACE("device run at " + std::to_string(first) + " x " +
                 std::to_string(count) + " skew " + std::to_string(skew) +
                 (with_out ? "" : " (no out)"));
    // Page-aligned, so skew 0 takes the direct (no bounce) path.
    AlignedFrame run_buffer(count * kBlockSize + skew);
    std::vector<uint8_t> loop_buffer(count * kBlockSize);
    const IoStats run_before = run_device_->thread_stats();
    const IoStats loop_before = loop_device_->thread_stats();
    const std::vector<std::span<uint8_t>> outs =
        with_out ? Blocks(run_buffer.span(), skew, count)
                 : std::vector<std::span<uint8_t>>();
    ASSERT_TRUE(run_device_->ReadBlocks(first, count, outs).ok());
    ASSERT_TRUE(ReadLoop(loop_device_.get(), first, count, loop_buffer).ok());
    if (with_out) {
      EXPECT_TRUE(std::equal(loop_buffer.begin(), loop_buffer.end(),
                             run_buffer.data() + skew));
    }
    ExpectPattern(loop_buffer, first);
    EXPECT_EQ(run_device_->thread_stats() - run_before,
              loop_device_->thread_stats() - loop_before);
    ExpectSameNextRead(run_device_.get(), loop_device_.get(), first + count);
  }

  // The class of one more read of `id` (sequential iff the cursor sits at
  // id - 1) is the same on both devices.
  static void ExpectSameNextRead(BlockDevice* a, BlockDevice* b, BlockId id) {
    if (id >= kBlocks) return;
    std::vector<uint8_t> block(kBlockSize);
    const IoStats a_before = a->thread_stats();
    const IoStats b_before = b->thread_stats();
    ASSERT_TRUE(a->Read(id, block).ok());
    ASSERT_TRUE(b->Read(id, block).ok());
    EXPECT_EQ(a->thread_stats() - a_before, b->thread_stats() - b_before);
  }

  std::unique_ptr<BlockDevice> run_device_;
  std::unique_ptr<BlockDevice> loop_device_;
  std::vector<std::string> paths_;
};

TEST_P(RunReadTest, ReadBlocksAccountsLikeOneReadPerBlock) {
  ExpectDeviceRunMatchesLoop(5, 3, /*skew=*/0);     // Cold: one seek.
  ExpectDeviceRunMatchesLoop(9, 4, /*skew=*/0);     // At cursor + 1.
  ExpectDeviceRunMatchesLoop(20, 1, /*skew=*/0);    // A single block.
  ExpectDeviceRunMatchesLoop(0, IOV_MAX + 200, 0);  // Several preadv calls.
  ExpectDeviceRunMatchesLoop(40, 7, /*skew=*/1);    // Unaligned buffer.
  ExpectDeviceRunMatchesLoop(kBlocks - 3, 3, /*skew=*/0);  // Up to the end.
  ExpectDeviceRunMatchesLoop(60, 5, /*skew=*/0, /*with_out=*/false);
  ExpectDeviceRunMatchesLoop(1, IOV_MAX + 1, /*skew=*/0, /*with_out=*/false);

  // Out of range: nothing is read or counted, and the cursor stays put.
  std::vector<uint8_t> buffer(4 * kBlockSize);
  const IoStats before = run_device_->thread_stats();
  EXPECT_EQ(run_device_->ReadBlocks(kBlocks, 1, Blocks(buffer, 0, 1)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(run_device_->ReadBlocks(kBlocks, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(loop_device_->Read(kBlocks, Blocks(buffer, 0, 1)[0]).code(),
            StatusCode::kOutOfRange);
  // A run straddling the end is refused whole, not read up to the end.
  EXPECT_EQ(
      run_device_->ReadBlocks(kBlocks - 2, 4, Blocks(buffer, 0, 4)).code(),
      StatusCode::kOutOfRange);
  // A buffer of the wrong size, or a buffer count other than `count`, is
  // refused too.
  const std::vector<std::span<uint8_t>> short_block = {
      std::span<uint8_t>(buffer).first(100)};
  EXPECT_EQ(run_device_->ReadBlocks(0, 1, short_block).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run_device_->ReadBlocks(0, 3, Blocks(buffer, 0, 2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run_device_->thread_stats(), before);
  ExpectSameNextRead(run_device_.get(), loop_device_.get(), 100);
}

// BufferPool::ReadBlocks on one pool vs a Read loop on an identical pool with
// an identical history: bytes, both levels' per-thread accounting, the
// next read's class, hits/misses/evictions and the resident set all match.
class PoolRunReadTest : public RunReadTest {
 protected:
  void MakePools(size_t capacity, size_t shards) {
    run_pool_ = std::make_unique<BufferPool>(run_device_.get(), capacity,
                                             shards);
    loop_pool_ = std::make_unique<BufferPool>(loop_device_.get(), capacity,
                                              shards);
  }

  // Applies the same single-block history to both pools.
  void Touch(std::initializer_list<BlockId> ids) {
    std::vector<uint8_t> block(kBlockSize);
    for (BlockId id : ids) {
      ASSERT_TRUE(run_pool_->Read(id, block).ok());
      ASSERT_TRUE(loop_pool_->Read(id, block).ok());
    }
  }

  void ExpectPoolRunMatchesLoop(BlockId first, uint32_t count, size_t skew,
                                bool with_out = true) {
    SCOPED_TRACE("pool run at " + std::to_string(first) + " x " +
                 std::to_string(count) + " skew " + std::to_string(skew) +
                 (with_out ? "" : " (no out)"));
    std::vector<uint8_t> run_buffer(count * kBlockSize + skew);
    std::vector<uint8_t> loop_buffer(count * kBlockSize);
    const IoStats run_logical = run_pool_->thread_stats();
    const IoStats loop_logical = loop_pool_->thread_stats();
    const IoStats run_physical = run_device_->thread_stats();
    const IoStats loop_physical = loop_device_->thread_stats();
    const std::vector<std::span<uint8_t>> outs =
        with_out ? Blocks(run_buffer, skew, count)
                 : std::vector<std::span<uint8_t>>();
    ASSERT_TRUE(run_pool_->ReadBlocks(first, count, outs).ok());
    ASSERT_TRUE(ReadLoop(loop_pool_.get(), first, count, loop_buffer).ok());
    if (with_out) {
      EXPECT_TRUE(std::equal(loop_buffer.begin(), loop_buffer.end(),
                             run_buffer.begin() + skew));
    }
    ExpectPattern(loop_buffer, first);
    EXPECT_EQ(run_pool_->thread_stats() - run_logical,
              loop_pool_->thread_stats() - loop_logical);
    EXPECT_EQ(run_device_->thread_stats() - run_physical,
              loop_device_->thread_stats() - loop_physical);
    ExpectSamePoolState();
    ExpectSameNextRead(run_pool_.get(), loop_pool_.get(), first + count);
    ExpectSamePoolState();
  }

  void ExpectSamePoolState() {
    const BufferPoolStats run = run_pool_->Stats();
    const BufferPoolStats loop = loop_pool_->Stats();
    EXPECT_EQ(run.hits, loop.hits);
    EXPECT_EQ(run.misses, loop.misses);
    EXPECT_EQ(run.evictions, loop.evictions);
    for (BlockId id = 0; id < kBlocks; ++id) {
      ASSERT_EQ(run_pool_->Contains(id), loop_pool_->Contains(id)) << id;
    }
  }

  std::unique_ptr<BufferPool> run_pool_;
  std::unique_ptr<BufferPool> loop_pool_;
};

TEST_P(PoolRunReadTest, ResidentBlocksInsideRunsHitInPlace) {
  MakePools(/*capacity=*/4096, /*shards=*/16);
  Touch({3, 5, 6, 10, 200});
  ExpectPoolRunMatchesLoop(2, 12, /*skew=*/0);  // Hits split the misses.
  ExpectPoolRunMatchesLoop(14, 6, /*skew=*/0);  // At cursor + 1.
  ExpectPoolRunMatchesLoop(0, 20, /*skew=*/0);  // Fully resident.
  ExpectPoolRunMatchesLoop(198, 5, /*skew=*/3);  // Unaligned caller buffer.
  ExpectPoolRunMatchesLoop(300, 9, /*skew=*/0, /*with_out=*/false);
  ExpectPoolRunMatchesLoop(0, IOV_MAX + 200, /*skew=*/0);
}

// A pool smaller than the run. Claiming frames for the first misses evicts
// the resident blocks 9 and (dirty, so written back) 7 before the run
// reaches them, so both become misses in turn; later claims evict frames
// of the same run that are not yet filled. All of it must match one Read
// per block.
TEST_P(PoolRunReadTest, EvictionsInsideRunsMatchPerBlockOrder) {
  MakePools(/*capacity=*/4, /*shards=*/1);
  Touch({9, 7});
  std::vector<uint8_t> dirty(kBlockSize);
  for (size_t i = 0; i < kBlockSize; ++i) dirty[i] = PatternByte(7, i);
  ASSERT_TRUE(run_pool_->Write(7, dirty).ok());
  ASSERT_TRUE(loop_pool_->Write(7, dirty).ok());
  ExpectPoolRunMatchesLoop(3, 8, /*skew=*/0);
  EXPECT_EQ(run_pool_->Stats().hits, 0u);
  EXPECT_EQ(run_device_->thread_stats().TotalWrites(), 1u);  // Block 7.
  ExpectPoolRunMatchesLoop(8, 4, /*skew=*/0);
  ExpectPoolRunMatchesLoop(30, 20, /*skew=*/5, /*with_out=*/false);
}

TEST_P(PoolRunReadTest, BypassPoolReadsTheRunStraightThrough) {
  MakePools(/*capacity=*/0, /*shards=*/0);
  ExpectPoolRunMatchesLoop(5, 8, /*skew=*/0);
  ExpectPoolRunMatchesLoop(13, 3, /*skew=*/1);  // At cursor + 1, unaligned.
  ExpectPoolRunMatchesLoop(40, 2, /*skew=*/0, /*with_out=*/false);
  ExpectPoolRunMatchesLoop(0, IOV_MAX + 200, /*skew=*/0);
}

TEST_P(PoolRunReadTest, OutOfRangeRunsCountNothing) {
  MakePools(/*capacity=*/64, /*shards=*/4);
  Touch({1, 2});
  const IoStats logical = run_pool_->thread_stats();
  const IoStats physical = run_device_->thread_stats();
  std::vector<uint8_t> buffer(4 * kBlockSize);
  EXPECT_EQ(run_pool_->ReadBlocks(kBlocks, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      run_pool_->ReadBlocks(kBlocks - 2, 4, Blocks(buffer, 0, 4)).code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(loop_pool_->Read(kBlocks, std::span<uint8_t>(buffer).first(
                                          kBlockSize))
                .code(),
            StatusCode::kOutOfRange);
  const std::vector<std::span<uint8_t>> short_blocks = {
      std::span<uint8_t>(buffer).first(10),
      std::span<uint8_t>(buffer).subspan(kBlockSize, 10)};
  EXPECT_EQ(run_pool_->ReadBlocks(0, 2, short_blocks).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run_pool_->thread_stats(), logical);
  EXPECT_EQ(run_device_->thread_stats(), physical);
  ExpectSamePoolState();
  ExpectPoolRunMatchesLoop(3, 2, /*skew=*/0);  // Cursor still at block 2.
}

INSTANTIATE_TEST_SUITE_P(Devices, RunReadTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FileDirectIo" : "Memory";
                         });
INSTANTIATE_TEST_SUITE_P(Devices, PoolRunReadTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FileDirectIo" : "Memory";
                         });

// A memory device that parks any read covering the gated block until
// Open(), so a test can hold one pool read inside the device.
class GatedDevice final : public BlockDevice {
 public:
  GatedDevice() : BlockDevice(kDefaultBlockSize), inner_(kDefaultBlockSize) {}

  uint64_t NumBlocks() const override { return inner_.NumBlocks(); }
  StatusOr<BlockId> Allocate(uint32_t count) override {
    return inner_.Allocate(count);
  }

  void Close(BlockId gated) {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = gated;
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  // Returns once a read is parked at the gate.
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  // Device reads that covered `id` so far.
  int ReadsOf(BlockId id) {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_[id];
  }

 protected:
  Status ReadImpl(BlockId id, std::span<uint8_t> out) override {
    return ReadBlocksImpl(id, 1, std::span<const std::span<uint8_t>>(&out, 1));
  }
  Status ReadBlocksImpl(BlockId first, uint32_t count,
                        std::span<const std::span<uint8_t>> outs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!open_ && first <= gated_ && gated_ < first + count) {
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return open_; });
      }
      for (uint32_t i = 0; i < count; ++i) ++reads_[first + i];
    }
    return inner_.ReadBlocks(first, count, outs);
  }
  Status WriteImpl(BlockId id, std::span<const uint8_t> data) override {
    return inner_.Write(id, data);
  }

 private:
  MemoryBlockDevice inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  BlockId gated_ = kInvalidBlockId;
  bool open_ = true;
  bool parked_ = false;
  std::map<BlockId, int> reads_;
};

// A pool read claims its missing blocks under the shard lock but reads the
// device with no lock held. With one shard, while a prefetch run is parked
// inside the device, a read of a block outside the run still completes,
// and a read of a block inside it waits for the run, then hits: the block
// reaches the device once.
TEST(BufferPoolTest, RunReadsTheDeviceWithNoShardLockHeld) {
  GatedDevice device;
  const size_t block_size = device.block_size();
  ASSERT_EQ(device.Allocate(128).value(), 0u);
  std::vector<uint8_t> block(block_size);
  for (BlockId id = 0; id < 128; ++id) {
    for (size_t i = 0; i < block_size; ++i) block[i] = PatternByte(id, i);
    ASSERT_TRUE(device.Write(id, block).ok());
  }
  BufferPool pool(&device, /*capacity_blocks=*/256, /*num_shards=*/1);
  device.Close(/*gated=*/5);
  std::thread run([&] { EXPECT_TRUE(pool.ReadBlocks(0, 64).ok()); });
  device.WaitParked();

  std::future<bool> outside = std::async(std::launch::async, [&] {
    std::vector<uint8_t> out(block_size);
    return pool.Read(100, out).ok() && out[7] == PatternByte(100, 7);
  });
  EXPECT_EQ(outside.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "a read outside the parked run waited for it";
  std::atomic<bool> inside_done{false};
  std::thread inside([&] {
    std::vector<uint8_t> out(block_size);
    EXPECT_TRUE(pool.Read(5, out).ok());
    EXPECT_EQ(out[7], PatternByte(5, 7));
    inside_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(inside_done.load()) << "block 5 is still being read";

  device.Open();
  run.join();
  inside.join();
  EXPECT_TRUE(outside.get());
  EXPECT_EQ(device.ReadsOf(5), 1);
  EXPECT_EQ(device.ReadsOf(100), 1);
  EXPECT_EQ(pool.Stats().misses, 65u);  // The run, and block 100.
  EXPECT_EQ(pool.Stats().hits, 1u);     // Block 5, after waiting.
}

// A vectored read that stopped short resumes at the first byte it did not
// transfer: mid-block, the rest of that block then every later one; on a
// block boundary, the next block whole.
TEST(RemainingIovecsTest, ResumesAfterShortTransfer) {
  std::vector<uint8_t> buffer(4 * 512);
  std::vector<std::span<uint8_t>> outs;
  for (size_t i = 0; i < 4; ++i) {
    outs.push_back(std::span<uint8_t>(buffer).subspan(i * 512, 512));
  }
  iovec iov[4];
  ASSERT_EQ(RemainingIovecs(outs, 0, iov), 4u);
  EXPECT_EQ(iov[0].iov_base, buffer.data());
  EXPECT_EQ(iov[3].iov_len, 512u);

  ASSERT_EQ(RemainingIovecs(outs, 512 + 100, iov), 3u);  // Mid-block.
  EXPECT_EQ(iov[0].iov_base, buffer.data() + 612);
  EXPECT_EQ(iov[0].iov_len, 412u);
  EXPECT_EQ(iov[1].iov_base, buffer.data() + 1024);
  EXPECT_EQ(iov[1].iov_len, 512u);
  EXPECT_EQ(iov[2].iov_base, buffer.data() + 1536);

  ASSERT_EQ(RemainingIovecs(outs, 2 * 512, iov), 2u);  // On a boundary.
  EXPECT_EQ(iov[0].iov_base, buffer.data() + 1024);
  EXPECT_EQ(iov[0].iov_len, 512u);
  EXPECT_EQ(iov[1].iov_base, buffer.data() + 1536);

  EXPECT_EQ(RemainingIovecs(outs, 4 * 512, iov), 0u);  // Complete.
}

StoredObject MakeObject(uint32_t id, double x, double y, std::string text) {
  StoredObject object;
  object.id = id;
  object.coords = {x, y};
  object.text = std::move(text);
  return object;
}

TEST(ObjectStoreTest, RoundTripSmallObjects) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  ObjectRef r1 = writer.Append(MakeObject(1, 25.4, -80.1, "spa internet")).value();
  ObjectRef r2 = writer.Append(MakeObject(2, 47.3, -122.2, "pool golf")).value();
  ASSERT_TRUE(writer.Finish().ok());

  ObjectStore store(&device, writer.bytes_written());
  StoredObject a = store.Load(r1).value();
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(a.coords, (std::vector<double>{25.4, -80.1}));
  EXPECT_EQ(a.text, "spa internet");
  StoredObject b = store.Load(r2).value();
  EXPECT_EQ(b.id, 2u);
  EXPECT_EQ(b.text, "pool golf");
}

TEST(ObjectStoreTest, SanitizesTabsAndNewlines) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  ObjectRef r = writer.Append(MakeObject(9, 1, 2, "a\tb\nc")).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  EXPECT_EQ(store.Load(r).value().text, "a b c");
}

TEST(ObjectStoreTest, MultiBlockRecordCostsSequentialReads) {
  MemoryBlockDevice device;  // 4096-byte blocks.
  ObjectStoreWriter writer(&device);
  std::string big_text(10000, 'x');
  ObjectRef r = writer.Append(MakeObject(1, 0, 0, big_text)).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  device.ResetStats();
  StoredObject object = store.Load(r).value();
  EXPECT_EQ(object.text, big_text);
  // Record spans 3 blocks: 1 random + 2 sequential reads.
  EXPECT_EQ(device.stats().random_reads, 1u);
  EXPECT_EQ(device.stats().sequential_reads, 2u);
}

TEST(ObjectStoreTest, HighPrecisionCoordinatesSurvive) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  double x = 25.40000000000001, y = -0.1234567890123456;
  ObjectRef r = writer.Append(MakeObject(1, x, y, "t")).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  StoredObject object = store.Load(r).value();
  EXPECT_EQ(object.coords[0], x);
  EXPECT_EQ(object.coords[1], y);
}

TEST(ObjectStoreTest, ForEachVisitsAllInOrder) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < 100; ++i) {
    refs.push_back(
        writer.Append(MakeObject(i, i, -double(i), "text" + std::to_string(i)))
            .value());
  }
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  uint32_t next = 0;
  ASSERT_TRUE(store
                  .ForEach([&](ObjectRef ref, const StoredObject& object) {
                    EXPECT_EQ(ref, refs[next]);
                    EXPECT_EQ(object.id, next);
                    ++next;
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(next, 100u);
}

TEST(ObjectStoreTest, LoadPastEndFails) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  (void)writer.Append(MakeObject(1, 0, 0, "x")).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  EXPECT_FALSE(store.Load(static_cast<ObjectRef>(writer.bytes_written())).ok());
}

// Many random objects across block boundaries: every ref loads back.
TEST(ObjectStoreTest, PropertyRandomRoundTrip) {
  Rng rng(4242);
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  std::vector<StoredObject> objects;
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < 500; ++i) {
    std::string text;
    uint64_t words = 1 + rng.NextUint64(60);
    for (uint64_t w = 0; w < words; ++w) {
      text += "word" + std::to_string(rng.NextUint64(1000)) + " ";
    }
    StoredObject object =
        MakeObject(i, rng.NextDouble(-180, 180), rng.NextDouble(-90, 90),
                   text);
    refs.push_back(writer.Append(object).value());
    objects.push_back(std::move(object));
  }
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  for (size_t i = 0; i < refs.size(); ++i) {
    StoredObject loaded = store.Load(refs[i]).value();
    EXPECT_EQ(loaded.id, objects[i].id);
    EXPECT_EQ(loaded.coords, objects[i].coords);
    // Writer sanitizes trailing space difference? No: text preserved as-is.
    EXPECT_EQ(loaded.text, objects[i].text);
  }
}

}  // namespace
}  // namespace ir2
