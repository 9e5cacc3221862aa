#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "text/ir_score.h"
#include "text/signature.h"
#include "tests/test_util.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

ScoredQueryTerm Term(const std::string& word, double idf) {
  return ScoredQueryTerm{word, HashWord(word), idf};
}

TEST(IrScorerTest, IdfDecreasesWithDocumentFrequency) {
  IrScorer scorer(CorpusStats{1000, 20.0});
  EXPECT_GT(scorer.Idf(1), scorer.Idf(10));
  EXPECT_GT(scorer.Idf(10), scorer.Idf(500));
  EXPECT_GE(scorer.Idf(1000), 0.0);  // Never negative.
}

TEST(IrScorerTest, ScoreZeroWithoutMatches) {
  IrScorer scorer(CorpusStats{1000, 20.0});
  Tokenizer tokenizer;
  TermCounts doc = CountTerms(tokenizer, "sauna gym lounge");
  std::vector<ScoredQueryTerm> terms = {Term("internet", 2.0),
                                        Term("pool", 1.5)};
  EXPECT_EQ(scorer.Score(doc, terms), 0.0);
}

TEST(IrScorerTest, MoreMatchedTermsScoreHigher) {
  IrScorer scorer(CorpusStats{1000, 20.0});
  Tokenizer tokenizer;
  std::vector<ScoredQueryTerm> terms = {Term("internet", 2.0),
                                        Term("pool", 1.5)};
  TermCounts one = CountTerms(tokenizer, "internet sauna gym");
  TermCounts two = CountTerms(tokenizer, "internet pool gym");
  EXPECT_GT(scorer.Score(two, terms), scorer.Score(one, terms));
}

TEST(IrScorerTest, HigherTfScoresHigherAtFixedLength) {
  IrScorer scorer(CorpusStats{1000, 20.0});
  Tokenizer tokenizer;
  std::vector<ScoredQueryTerm> terms = {Term("pool", 2.0)};
  TermCounts tf1 = CountTerms(tokenizer, "pool a b c");
  TermCounts tf3 = CountTerms(tokenizer, "pool pool pool c");
  EXPECT_GT(scorer.Score(tf3, terms), scorer.Score(tf1, terms));
}

TEST(IrScorerTest, LongerDocumentsPenalized) {
  IrScorer scorer(CorpusStats{1000, 20.0});
  Tokenizer tokenizer;
  std::vector<ScoredQueryTerm> terms = {Term("pool", 2.0)};
  TermCounts short_doc = CountTerms(tokenizer, "pool spa");
  std::string long_text = "pool";
  for (int i = 0; i < 60; ++i) long_text += " filler" + std::to_string(i);
  TermCounts long_doc = CountTerms(tokenizer, long_text);
  EXPECT_GT(scorer.Score(short_doc, terms), scorer.Score(long_doc, terms));
}

TEST(IrScorerTest, UpperBoundEmptyIsZero) {
  IrScorer scorer(CorpusStats{1000, 20.0});
  EXPECT_EQ(scorer.UpperBound({}), 0.0);
}

TEST(IrScorerTest, UpperBoundGrowsWithIdfMass) {
  IrScorer scorer(CorpusStats{1000, 20.0});
  std::vector<double> one = {2.0};
  std::vector<double> two = {2.0, 1.5};
  EXPECT_GT(scorer.UpperBound(two), scorer.UpperBound(one));
}

// The load-bearing property for the general IR2-Tree search: UpperBound is
// a true upper bound on the score of ANY document matching those terms.
TEST(IrScorerTest, PropertyUpperBoundDominatesActualScores) {
  Rng rng(2024);
  Tokenizer tokenizer;
  IrScorer scorer(CorpusStats{5000, 25.0});
  std::vector<ScoredQueryTerm> terms = {Term("alpha", scorer.Idf(3)),
                                        Term("beta", scorer.Idf(40)),
                                        Term("gamma", scorer.Idf(400))};
  std::vector<double> idfs;
  for (const auto& term : terms) idfs.push_back(term.idf);
  double upper = scorer.UpperBound(idfs);

  for (int iter = 0; iter < 500; ++iter) {
    // Adversarial documents: random tf for each query term plus random
    // filler; includes the tiny-doc high-tf cases that break the naive
    // tf=1 bound.
    std::string text;
    for (const auto& term : terms) {
      uint64_t tf = rng.NextUint64(8);  // 0..7 occurrences.
      for (uint64_t i = 0; i < tf; ++i) text += term.word + " ";
    }
    uint64_t filler = rng.NextUint64(10);
    for (uint64_t i = 0; i < filler; ++i) {
      text += testing_util::Token("x", i) + " ";
    }
    if (text.empty()) continue;
    TermCounts doc = CountTerms(tokenizer, text);
    EXPECT_LE(scorer.Score(doc, terms), upper) << text;
  }
}

TEST(IrScorerTest, UpperBoundSubsetMonotone) {
  // Matching fewer keywords can never raise the bound.
  IrScorer scorer(CorpusStats{5000, 25.0});
  std::vector<double> all = {3.0, 2.0, 1.0};
  std::vector<double> subset = {3.0, 2.0};
  EXPECT_GE(scorer.UpperBound(all), scorer.UpperBound(subset));
}

}  // namespace
}  // namespace ir2
