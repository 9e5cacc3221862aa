#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

TEST(TokenizerTest, SplitsOnNonAlnumAndLowercases) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("wireless Internet, pool"),
            (std::vector<std::string>{"wireless", "internet", "pool"}));
  EXPECT_EQ(tokenizer.Tokenize("Wi-Fi  24/7!"),
            (std::vector<std::string>{"wi", "fi", "24", "7"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  Tokenizer tokenizer;
  EXPECT_TRUE(tokenizer.Tokenize("").empty());
  EXPECT_TRUE(tokenizer.Tokenize(" ,;-! ").empty());
}

TEST(TokenizerTest, DistinctTokensDeduplicates) {
  Tokenizer tokenizer;
  std::vector<std::string> distinct =
      tokenizer.DistinctTokens("pool spa POOL Spa pool");
  EXPECT_EQ(distinct, (std::vector<std::string>{"pool", "spa"}));
}

TEST(TokenizerTest, NormalizeMatchesTokenization) {
  EXPECT_EQ(Tokenizer::Normalize("Internet"), "internet");
  EXPECT_EQ(Tokenizer::Normalize("Wi-Fi"), "wifi");
  EXPECT_EQ(Tokenizer::Normalize("POOL!"), "pool");
}

TEST(TokenizerTest, CountTerms) {
  Tokenizer tokenizer;
  TermCounts counts = CountTerms(tokenizer, "pool spa pool pool");
  EXPECT_EQ(counts.total_tokens, 4u);
  ASSERT_EQ(counts.counts.size(), 2u);
  uint32_t pool_count = 0, spa_count = 0;
  for (const auto& [word, count] : counts.counts) {
    if (word == "pool") pool_count = count;
    if (word == "spa") spa_count = count;
  }
  EXPECT_EQ(pool_count, 3u);
  EXPECT_EQ(spa_count, 1u);
}

TEST(TokenizerTest, ContainsAllKeywordsIsCaseInsensitiveBooleanAnd) {
  Tokenizer tokenizer;
  std::string text = "wireless Internet, pool, golf course";  // H2.
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, text, {"internet", "pool"}));
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, text, {"Internet", "POOL"}));
  EXPECT_FALSE(ContainsAllKeywords(tokenizer, text, {"internet", "spa"}));
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, text, {}));  // Vacuous.
}

TEST(TokenizerTest, SubstringIsNotAMatch) {
  Tokenizer tokenizer;
  // "pool" must not match inside "whirlpool".
  EXPECT_FALSE(ContainsAllKeywords(tokenizer, "whirlpool suite", {"pool"}));
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, "whirlpool suite", {"whirlpool"}));
}

TEST(TokenizerTest, ContainsAllNormalizedKeywordsMatchesTokenizedForm) {
  // The allocation-free form assumes normalized keywords and must agree
  // with ContainsAllKeywords on every text (it is the query hot path's
  // verification step).
  Tokenizer tokenizer;
  std::vector<std::string> kw = tokenizer.NormalizeKeywords(
      {"Internet", "pool"});
  EXPECT_TRUE(ContainsAllNormalizedKeywords("wireless Internet, pool", kw));
  EXPECT_TRUE(ContainsAllNormalizedKeywords("POOL then internet", kw));
  EXPECT_FALSE(ContainsAllNormalizedKeywords("internet only", kw));
  EXPECT_FALSE(ContainsAllNormalizedKeywords("whirlpool internet", kw));
  EXPECT_FALSE(ContainsAllNormalizedKeywords("", kw));
  EXPECT_TRUE(ContainsAllNormalizedKeywords("anything", {}));
  // Token at the very end of the text (no trailing separator).
  EXPECT_TRUE(ContainsAllNormalizedKeywords("internet pool", kw));
}

TEST(TokenizerTest, ContainsAllNormalizedKeywordsPastMaskWidth) {
  // More than 64 keywords exercises the strike-out fallback path.
  std::vector<std::string> kw;
  std::string text;
  for (int i = 0; i < 70; ++i) {
    kw.push_back(testing_util::Token("w", i));
    text += testing_util::Token(" w", i);
  }
  EXPECT_TRUE(ContainsAllNormalizedKeywords(text, kw));
  kw.push_back("missing");
  EXPECT_FALSE(ContainsAllNormalizedKeywords(text, kw));
}

TEST(TokenizerTest, PaperFigure1BooleanQuery) {
  // Example 2: {internet, pool} matches exactly H2 and H7 of Figure 1.
  Tokenizer tokenizer;
  std::vector<std::pair<int, std::string>> hotels = {
      {1, "tennis court, gift shop, spa, Internet"},
      {2, "wireless Internet, pool, golf course"},
      {3, "spa, continental suites, pool"},
      {4, "sauna, pool, conference rooms"},
      {5, "dry cleaning, free lunch, pets"},
      {6, "safe box, concierge, internet, pets"},
      {7, "Internet, airport transportation, pool"},
      {8, "wake up service, no pets, pool"},
  };
  std::vector<int> matches;
  for (const auto& [id, text] : hotels) {
    if (ContainsAllKeywords(tokenizer, text, {"internet", "pool"})) {
      matches.push_back(id);
    }
  }
  EXPECT_EQ(matches, (std::vector<int>{2, 7}));
}

}  // namespace
}  // namespace ir2
