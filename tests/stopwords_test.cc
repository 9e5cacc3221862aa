#include <gtest/gtest.h>

#include <vector>

#include "core/database.h"
#include "tests/test_util.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

using testing_util::Figure1Hotels;
using testing_util::ResultIds;

Tokenizer StopwordTokenizer() {
  return Tokenizer(std::unordered_set<std::string>{"the", "and", "no"});
}

TEST(StopwordsTest, TokenizeDropsStopwords) {
  Tokenizer tokenizer = StopwordTokenizer();
  EXPECT_EQ(tokenizer.Tokenize("the pool and the spa"),
            (std::vector<std::string>{"pool", "spa"}));
  EXPECT_TRUE(tokenizer.IsStopword("the"));
  EXPECT_FALSE(tokenizer.IsStopword("pool"));
}

TEST(StopwordsTest, CountTermsExcludesStopwords) {
  Tokenizer tokenizer = StopwordTokenizer();
  TermCounts counts = CountTerms(tokenizer, "the pool and the pool");
  EXPECT_EQ(counts.total_tokens, 2u);  // Only the two "pool" occurrences.
}

TEST(StopwordsTest, NormalizeKeywordsFiltersAndDeduplicates) {
  Tokenizer tokenizer = StopwordTokenizer();
  std::vector<std::string> normalized = tokenizer.NormalizeKeywords(
      {"The", "POOL", "pool", "and", "", "Spa!"});
  EXPECT_EQ(normalized, (std::vector<std::string>{"pool", "spa"}));
}

TEST(StopwordsTest, StopwordKeywordsNeitherMatchNorExclude) {
  Tokenizer tokenizer = StopwordTokenizer();
  // "no pets" — "no" is a stopword here, so {"no", "pets"} reduces to
  // {"pets"} and matches; {"no"} alone reduces to {} (vacuous true).
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, "wake up service, no pets",
                                  {"no", "pets"}));
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, "anything at all", {"no"}));
  EXPECT_FALSE(ContainsAllKeywords(tokenizer, "wake up service", {"pets"}));
}

TEST(StopwordsTest, EnglishStopwordsCoverTheUsualSuspects) {
  std::unordered_set<std::string> stopwords = EnglishStopwords();
  for (const char* word : {"the", "and", "of", "is", "to"}) {
    EXPECT_TRUE(stopwords.contains(word)) << word;
  }
  EXPECT_FALSE(stopwords.contains("pool"));
}

TEST(StopwordsTest, DatabaseAlgorithmsAgreeUnderStopwords) {
  DatabaseOptions options;
  options.tree_options.capacity_override = 4;
  options.ir2_signature = SignatureConfig{256, 3};
  options.stopwords = {"no", "up", "free"};
  auto db = SpatialKeywordDatabase::Build(Figure1Hotels(), options).value();

  // {"no", "pets"} reduces to {"pets"}: H5 ("pets"), H6 ("pets"),
  // H8 ("no pets") all match, ordered by distance from [30.5, 100.0].
  DistanceFirstQuery query;
  query.point = Point(30.5, 100.0);
  query.keywords = {"no", "pets"};
  query.k = 3;
  const std::vector<uint32_t> expected = {5, 8, 6};
  EXPECT_EQ(ResultIds(db->Query(query, Algorithm::kRTree).value()), expected);
  EXPECT_EQ(ResultIds(db->Query(query, Algorithm::kIio).value()), expected);
  EXPECT_EQ(ResultIds(db->Query(query, Algorithm::kIr2).value()), expected);
  EXPECT_EQ(ResultIds(db->Query(query, Algorithm::kMir2).value()), expected);
}

TEST(StopwordsTest, StopwordsShrinkTheIndex) {
  // Indexing without the stopword drops its postings and signature bits.
  std::vector<StoredObject> objects = Figure1Hotels();
  DatabaseOptions plain;
  plain.tree_options.capacity_override = 4;
  DatabaseOptions filtered = plain;
  filtered.stopwords = EnglishStopwords();

  auto db_plain = SpatialKeywordDatabase::Build(objects, plain).value();
  auto db_filtered =
      SpatialKeywordDatabase::Build(objects, filtered).value();
  EXPECT_LT(db_filtered->stats().total_distinct_words,
            db_plain->stats().total_distinct_words);
  EXPECT_EQ(db_filtered->inverted_index()->DocumentFrequency("no"), 0u);
  EXPECT_GT(db_plain->inverted_index()->DocumentFrequency("no"), 0u);
}

}  // namespace
}  // namespace ir2
