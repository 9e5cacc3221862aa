#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/batch_executor.h"
#include "core/database.h"
#include "datagen/workload.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "storage/io_scheduler.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;
using testing_util::ResultIds;

class FileDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = ::testing::TempDir() + "/ir2db_file_device_test";
    std::filesystem::remove_all(directory_);
    std::filesystem::create_directories(directory_);
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  std::string Path(const char* name) const { return directory_ + "/" + name; }

  std::string directory_;
};

std::vector<uint8_t> PatternBlock(size_t block_size, uint32_t salt) {
  std::vector<uint8_t> block(block_size);
  Rng rng(salt);
  for (uint8_t& b : block) {
    b = static_cast<uint8_t>(rng.NextUint64());
  }
  return block;
}

// Satellite: Create, Allocate, and a later Open must agree on the file
// size — Allocate ftruncates to the allocated extent, so NumBlocks survives
// the close/reopen boundary even if no write ever touched the last block.
TEST_F(FileDeviceTest, CreateAllocateOpenAgreeOnSize) {
  const std::string path = Path("size.dat");
  {
    auto device = FileBlockDevice::Create(path, 512).value();
    EXPECT_EQ(device->NumBlocks(), 0u);
    EXPECT_EQ(device->Allocate(7).value(), 0u);
    EXPECT_EQ(device->NumBlocks(), 7u);
    // Write only block 3; blocks 4..6 stay untouched (sparse tail).
    std::vector<uint8_t> block = PatternBlock(512, 3);
    ASSERT_TRUE(device->Write(3, block).ok());
    ASSERT_TRUE(device->Sync().ok());
  }
  EXPECT_EQ(std::filesystem::file_size(path), 7u * 512u);
  {
    auto device = FileBlockDevice::Open(path, 512).value();
    EXPECT_EQ(device->NumBlocks(), 7u);
    std::vector<uint8_t> out(512);
    ASSERT_TRUE(device->Read(3, out).ok());
    EXPECT_EQ(out, PatternBlock(512, 3));
    // The never-written tail reads as zeros, not EOF.
    ASSERT_TRUE(device->Read(6, out).ok());
    EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
    // Growing an opened file also sticks.
    EXPECT_EQ(device->Allocate(3).value(), 7u);
  }
  {
    auto device = FileBlockDevice::Open(path, 512).value();
    EXPECT_EQ(device->NumBlocks(), 10u);
  }
}

// O_DIRECT is a request, not a requirement: on filesystems that refuse it
// (tmpfs under TempDir typically does) the device falls back to buffered
// I/O and everything still works; when it is granted, reads round-trip the
// same bytes through the aligned bounce path.
TEST_F(FileDeviceTest, DirectIoRequestedFallsBackGracefully) {
  const std::string path = Path("direct.dat");
  FileBlockDeviceOptions options;
  options.direct_io = true;
  auto device = FileBlockDevice::Create(path, 4096, options).value();
  // Whether direct was granted depends on the filesystem; both are valid.
  (void)device->using_direct_io();
  ASSERT_TRUE(device->Allocate(4).ok());
  const std::vector<uint8_t> block = PatternBlock(4096, 99);
  ASSERT_TRUE(device->Write(1, block).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(device->Read(1, out).ok());
  EXPECT_EQ(out, block);
  ASSERT_TRUE(device->Sync().ok());

  // A block size that cannot satisfy O_DIRECT alignment must never enable
  // it (the option is silently ignored rather than failing every read).
  auto odd = FileBlockDevice::Create(Path("odd.dat"), 512, options).value();
  EXPECT_FALSE(odd->using_direct_io());
  ASSERT_TRUE(odd->Allocate(1).ok());
  std::vector<uint8_t> small = PatternBlock(512, 7);
  ASSERT_TRUE(odd->Write(0, small).ok());
  std::vector<uint8_t> small_out(512);
  ASSERT_TRUE(odd->Read(0, small_out).ok());
  EXPECT_EQ(small_out, small);
}

// Write-barrier consistency: everything written before Sync() must be
// visible to a fresh Open through a different descriptor — the crash model
// our Save() durability story relies on.
TEST_F(FileDeviceTest, SyncBarrierThenReopenSeesAllWrites) {
  const std::string path = Path("barrier.dat");
  auto device = FileBlockDevice::Create(path, 1024).value();
  ASSERT_TRUE(device->Allocate(16).ok());
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(device->Write(i, PatternBlock(1024, i)).ok());
  }
  ASSERT_TRUE(device->Sync().ok());

  // Keep the writer open (simulating a crash that never closes cleanly)
  // and verify through an independent descriptor.
  auto reader = FileBlockDevice::Open(path, 1024).value();
  ASSERT_EQ(reader->NumBlocks(), 16u);
  std::vector<uint8_t> out(1024);
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(reader->Read(i, out).ok());
    EXPECT_EQ(out, PatternBlock(1024, i)) << "block " << i;
  }
}

constexpr size_t kDirectBlockSize = 4096;

// A file of `blocks` pattern blocks, opened with O_DIRECT requested (granted
// or not, depending on the filesystem), its counters reset.
std::unique_ptr<FileBlockDevice> PatternFile(const std::string& path,
                                             uint32_t blocks) {
  FileBlockDeviceOptions options;
  options.direct_io = true;
  auto device =
      FileBlockDevice::Create(path, kDirectBlockSize, options).value();
  EXPECT_TRUE(device->Allocate(blocks).ok());
  for (uint32_t i = 0; i < blocks; ++i) {
    EXPECT_TRUE(device->Write(i, PatternBlock(kDirectBlockSize, i)).ok());
  }
  EXPECT_TRUE(device->Sync().ok());
  device->ResetStats();
  return device;
}

// Exactly-once prefetch on real files: the scheduler reads every requested
// block once, on its own thread (so the physical profile is speculative,
// never this thread's), clips a range that runs past the end of the
// device, ignores one that starts past it, and charges nothing to
// re-prefetch blocks that are already resident.
TEST_F(FileDeviceTest, SchedulerPrefetchReadsEachBlockExactlyOnce) {
  constexpr uint32_t kBlocks = 64;
  auto device = PatternFile(Path("prefetch.dat"), kBlocks);
  BufferPool pool(device.get(), /*capacity_blocks=*/kBlocks);
  IoSchedulerOptions options;
  options.synchronous = true;
  IoScheduler scheduler(&pool, options);

  // Runs past the end: clipped to the last 4 blocks.
  scheduler.PrefetchRange(kBlocks - 4, 100);
  EXPECT_EQ(scheduler.stats().requested, 4u);
  EXPECT_EQ(scheduler.stats().blocks_fetched, 4u);
  // Starts past the end: dropped before it costs anything.
  scheduler.PrefetchRange(kBlocks + 100, 1);
  EXPECT_EQ(scheduler.stats().requested, 4u);

  for (uint32_t i = 0; i < kBlocks; i += 4) {
    scheduler.PrefetchRange(i, 4);
  }
  IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.blocks_fetched, kBlocks);
  EXPECT_EQ(stats.deduped, 4u);  // The clipped tail was already resident.
  EXPECT_EQ(scheduler.speculative_stats().TotalReads(), kBlocks);
  EXPECT_EQ(device->thread_stats().TotalReads(), 0u);

  // Re-prefetching the resident range costs zero physical reads.
  scheduler.PrefetchRange(0, kBlocks);
  stats = scheduler.stats();
  EXPECT_EQ(stats.blocks_fetched, kBlocks);
  EXPECT_EQ(stats.deduped, 4u + kBlocks);
  EXPECT_EQ(scheduler.speculative_stats().TotalReads(), kBlocks);

  // Every demand read is a pool hit with the right bytes.
  std::vector<uint8_t> out(kDirectBlockSize);
  for (uint32_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE(pool.Read(i, out).ok());
    EXPECT_EQ(out, PatternBlock(kDirectBlockSize, i)) << "block " << i;
  }
  EXPECT_EQ(device->thread_stats().TotalReads(), 0u);
  EXPECT_EQ(device->stats().TotalReads(), kBlocks);
  EXPECT_TRUE(scheduler.last_error().ok());
}

// Hammer for TSan: demand threads read through the pool while an
// asynchronous scheduler prefetches the same range, requested from two
// threads at once. Every read must return the right bytes and the pool's
// per-shard locks must keep physical reads exactly-once (no torn pages, no
// double fetch).
TEST_F(FileDeviceTest, ConcurrentDemandAndPrefetchHammer) {
  constexpr uint32_t kBlocks = 128;
  auto device = PatternFile(Path("hammer.dat"), kBlocks);
  // Per-shard capacity must cover every distinct block even in the worst
  // hash imbalance, or LRU eviction re-fetches blocks and breaks the
  // exactly-once accounting below: 8 shards, kBlocks each.
  BufferPool pool(device.get(), kBlocks * 8, /*num_shards=*/8);
  IoSchedulerOptions options;
  options.synchronous = false;
  options.max_run_blocks = 16;
  IoScheduler scheduler(&pool, options);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, &failed, t] {
      Rng rng(1000 + t);
      std::vector<uint8_t> out(kDirectBlockSize);
      for (int iter = 0; iter < 2000; ++iter) {
        const uint32_t id = static_cast<uint32_t>(rng.NextUint64(kBlocks));
        if (!pool.Read(id, out).ok() ||
            out != PatternBlock(kDirectBlockSize, id)) {
          failed = true;
          return;
        }
      }
    });
  }
  for (uint32_t start : {0u, 8u}) {
    threads.emplace_back([&scheduler, start] {
      for (uint32_t round = 0; round < 8; ++round) {
        for (uint32_t i = start; i < kBlocks; i += 16) {
          scheduler.PrefetchRange(i, 16);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  scheduler.Drain();
  EXPECT_FALSE(failed);
  EXPECT_TRUE(scheduler.last_error().ok());
  // Exactly-once physical reads across all demand + speculative traffic.
  EXPECT_EQ(device->stats().TotalReads(), kBlocks);
}

// End-to-end: Build in memory, Save to a real directory, Open with the
// production file backend (direct I/O requested, prefetch on) and check
// every algorithm answers exactly like the in-memory build.
TEST_F(FileDeviceTest, DatabaseRoundTripOnRealFiles) {
  std::vector<StoredObject> objects = RandomObjects(91, 350, 30, 5);
  DatabaseOptions build_options;
  build_options.tree_options.capacity_override = 8;
  build_options.ir2_signature = SignatureConfig{128, 3};
  auto built = SpatialKeywordDatabase::Build(objects, build_options).value();
  const std::string db_dir = directory_ + "/db";
  ASSERT_TRUE(built->Save(db_dir).ok());

  DatabaseOptions runtime;
  runtime.cold_queries = false;
  runtime.prefetch = true;
  runtime.prefetch_objects = true;
  runtime.scheduler.synchronous = true;
  runtime.file_device.direct_io = true;
  auto reopened = SpatialKeywordDatabase::Open(db_dir, runtime).value();

  Rng rng(92);
  for (int iter = 0; iter < 10; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {testing_util::Token("w", rng.NextUint64(30)),
                      testing_util::Token("w", rng.NextUint64(30))};
    query.k = 8;
    EXPECT_EQ(ResultIds(reopened->Query(query, Algorithm::kIr2).value()),
              ResultIds(built->Query(query, Algorithm::kIr2).value()));
    EXPECT_EQ(ResultIds(reopened->Query(query, Algorithm::kMir2).value()),
              ResultIds(built->Query(query, Algorithm::kMir2).value()));
    EXPECT_EQ(ResultIds(reopened->Query(query, Algorithm::kIio).value()),
              ResultIds(built->Query(query, Algorithm::kIio).value()));
    EXPECT_EQ(ResultIds(reopened->Query(query, Algorithm::kRTree).value()),
              ResultIds(built->Query(query, Algorithm::kRTree).value()));
  }

  // The same directory opened cold (no prefetch) also agrees —
  // one saved artifact serves both regimes.
  DatabaseOptions cold;
  cold.cold_queries = true;
  auto cold_db = SpatialKeywordDatabase::Open(db_dir, cold).value();
  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w1", "w2"};
  query.k = 8;
  EXPECT_EQ(ResultIds(cold_db->Query(query, Algorithm::kIr2).value()),
            ResultIds(built->Query(query, Algorithm::kIr2).value()));
}

// BatchExecutor over a file-backed database (prefetch off, which the
// executor requires): per-query results must match the in-memory serial
// reference. In the TSan suite this races the workers' private pools over
// shared file devices.
TEST_F(FileDeviceTest, BatchExecutorOverFileBackedDatabase) {
  std::vector<StoredObject> objects = RandomObjects(93, 300, 25, 5);
  DatabaseOptions build_options;
  build_options.tree_options.capacity_override = 8;
  build_options.ir2_signature = SignatureConfig{128, 3};
  auto built = SpatialKeywordDatabase::Build(objects, build_options).value();
  const std::string db_dir = directory_ + "/batch_db";
  ASSERT_TRUE(built->Save(db_dir).ok());

  DatabaseOptions runtime;
  runtime.cold_queries = false;
  auto db = SpatialKeywordDatabase::Open(db_dir, runtime).value();

  WorkloadConfig config;
  config.seed = 94;
  config.num_queries = 24;
  config.num_keywords = 2;
  config.k = 5;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, db->tokenizer(), config);

  BatchExecutorOptions options;
  options.num_threads = 1;
  options.algorithm = Algorithm::kIr2;
  BatchResults reference =
      BatchExecutor(built.get(), options).Run(queries).value();

  options.num_threads = 4;
  BatchExecutor executor(db.get(), options);
  BatchResults batch = executor.Run(queries).value();
  ASSERT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batch.results[i].size(), reference.results[i].size())
        << "query " << i;
    for (size_t r = 0; r < batch.results[i].size(); ++r) {
      EXPECT_EQ(batch.results[i][r].ref, reference.results[i][r].ref)
          << "query " << i << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace ir2
