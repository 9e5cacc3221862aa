#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "storage/block_device.h"
#include "tests/test_util.h"
#include "text/signature_file.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

std::vector<uint64_t> Hashes(const Tokenizer& tokenizer,
                             const std::string& text) {
  std::vector<uint64_t> hashes;
  for (const std::string& word : tokenizer.DistinctTokens(text)) {
    hashes.push_back(HashWord(word));
  }
  return hashes;
}

TEST(SignatureFileTest, BuildOpenRoundTrip) {
  MemoryBlockDevice device;
  SignatureConfig config{128, 3};
  SignatureFileBuilder builder(&device, config);
  Tokenizer tokenizer;
  builder.AddObject(100, Hashes(tokenizer, "internet pool"));
  builder.AddObject(200, Hashes(tokenizer, "spa sauna"));
  ASSERT_TRUE(builder.Finish().ok());

  auto file = SignatureFile::Open(&device).value();
  EXPECT_EQ(file->num_objects(), 2u);
  EXPECT_EQ(file->config(), config);

  std::vector<ObjectRef> hits =
      file->Candidates(Hashes(tokenizer, "internet")).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 100u);
}

TEST(SignatureFileTest, EmptyFileAndEmptyQuery) {
  MemoryBlockDevice device;
  SignatureFileBuilder builder(&device, SignatureConfig{64, 3});
  ASSERT_TRUE(builder.Finish().ok());
  auto file = SignatureFile::Open(&device).value();
  EXPECT_TRUE(file->Candidates({}).value().empty());

  // Empty query signature matches everything present.
  MemoryBlockDevice device2;
  SignatureFileBuilder builder2(&device2, SignatureConfig{64, 3});
  builder2.AddObject(7, {});
  ASSERT_TRUE(builder2.Finish().ok());
  auto file2 = SignatureFile::Open(&device2).value();
  EXPECT_EQ(file2->Candidates({}).value(),
            (std::vector<ObjectRef>{7}));
}

TEST(SignatureFileTest, NoFalseNegativesManyObjects) {
  Rng rng(9);
  Tokenizer tokenizer;
  std::vector<StoredObject> objects =
      testing_util::RandomObjects(10, 500, 40, 6);
  MemoryBlockDevice device;
  SignatureConfig config{96, 3};
  SignatureFileBuilder builder(&device, config);
  for (uint32_t i = 0; i < objects.size(); ++i) {
    builder.AddObject(i, Hashes(tokenizer, objects[i].text));
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto file = SignatureFile::Open(&device).value();

  for (int w = 0; w < 40; w += 6) {
    std::string keyword = testing_util::Token("w", w);
    std::set<ObjectRef> expected;
    for (uint32_t i = 0; i < objects.size(); ++i) {
      if (ContainsAllKeywords(tokenizer, objects[i].text, {keyword})) {
        expected.insert(i);
      }
    }
    std::vector<uint64_t> query_hash = {HashWord(keyword)};
    std::vector<ObjectRef> candidate_list =
        file->Candidates(query_hash).value();
    std::set<ObjectRef> candidates(candidate_list.begin(),
                                   candidate_list.end());
    for (ObjectRef ref : expected) {
      EXPECT_TRUE(candidates.contains(ref)) << "missing " << ref;
    }
  }
}

TEST(SignatureFileTest, ScanIsSequentialIo) {
  Tokenizer tokenizer;
  MemoryBlockDevice device;
  SignatureConfig config{256, 3};
  SignatureFileBuilder builder(&device, config);
  for (uint32_t i = 0; i < 2000; ++i) {
    std::vector<uint64_t> hash = {HashWord(testing_util::Token("w", i % 9))};
    builder.AddObject(i, hash);
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto file = SignatureFile::Open(&device).value();

  device.ResetStats();
  std::vector<uint64_t> w3 = {HashWord("w3")};
  (void)file->Candidates(w3).value();
  // Full scan: 1 random + the rest sequential.
  EXPECT_EQ(device.stats().random_reads, 1u);
  EXPECT_EQ(device.stats().sequential_reads, device.NumBlocks() - 2);
}

TEST(SignatureFileTest, RecordsStraddleBlockBoundaries) {
  // Record size 4 + 25 bytes does not divide 4096: records straddle.
  Tokenizer tokenizer;
  MemoryBlockDevice device;
  SignatureConfig config{200, 3};
  SignatureFileBuilder builder(&device, config);
  const uint32_t n = 1000;
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<uint64_t> hash = {HashWord(i % 2 ? "odd" : "even")};
    builder.AddObject(i * 3 + 1, hash);
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto file = SignatureFile::Open(&device).value();
  std::vector<uint64_t> odd_hash = {HashWord("odd")};
  std::vector<ObjectRef> odd = file->Candidates(odd_hash).value();
  // All odd-i refs must be present (no false negatives); refs preserved.
  EXPECT_GE(odd.size(), n / 2);
  std::set<ObjectRef> odd_set(odd.begin(), odd.end());
  for (uint32_t i = 1; i < n; i += 2) {
    EXPECT_TRUE(odd_set.contains(i * 3 + 1));
  }
}

TEST(SignatureFileTest, OpenRejectsGarbage) {
  MemoryBlockDevice device;
  (void)device.Allocate(1).value();
  std::vector<uint8_t> junk(device.block_size(), 0xab);
  ASSERT_TRUE(device.Write(0, junk).ok());
  EXPECT_FALSE(SignatureFile::Open(&device).ok());
}

}  // namespace
}  // namespace ir2
