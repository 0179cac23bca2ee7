// Differential matching tests: every production matcher is checked
// against the independent brute-force oracle (tests/matching_oracle.h)
// on hundreds of seeded random candidate graphs per regime. All
// randomness derives from the logged master seed (tests/test_seed.h), so
// any failure reproduces with --seed=<logged>.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_result.h"
#include "matching/greedy.h"
#include "matching/matcher.h"
#include "matching_oracle.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::matching {
namespace {

using csj::testing::OracleIsValidMatching;
using csj::testing::OracleMaxMatchingSize;
using csj::testing::TestSeed;

// ---------------------------------------------------------------------------
// Seeded graph generators, one per regime. Each returns the candidate-edge
// list in generation order — the order a join would hand to the matcher.
// ---------------------------------------------------------------------------

/// Uniform G(n_b, n_a, p): every (b, a) edge present with probability p.
std::vector<MatchedPair> RandomBipartite(util::Rng& rng, uint32_t n_b,
                                         uint32_t n_a, double p) {
  std::vector<MatchedPair> edges;
  for (uint32_t b = 0; b < n_b; ++b) {
    for (uint32_t a = 0; a < n_a; ++a) {
      if (rng.Bernoulli(p)) edges.push_back({b, a});
    }
  }
  return edges;
}

/// Skewed-star regime: a few hub b's connect to most a's, the rest of the
/// b's get one or two edges each — the degree profile CSF's
/// smallest-cover-first rule exists for.
std::vector<MatchedPair> SkewedStars(util::Rng& rng, uint32_t n_b,
                                     uint32_t n_a) {
  std::vector<MatchedPair> edges;
  const uint32_t hubs = 1 + static_cast<uint32_t>(rng.Below(3));
  for (uint32_t b = 0; b < n_b; ++b) {
    if (b < hubs) {
      for (uint32_t a = 0; a < n_a; ++a) {
        if (rng.Bernoulli(0.8)) edges.push_back({b, a});
      }
    } else {
      const uint32_t degree = 1 + static_cast<uint32_t>(rng.Below(2));
      for (uint32_t k = 0; k < degree; ++k) {
        edges.push_back({b, static_cast<UserId>(rng.Below(n_a))});
      }
    }
  }
  return edges;
}

/// Multi-component regime: several disjoint dense blocks with id gaps in
/// between — the shape Ex-MinMax's segment flushing produces.
std::vector<MatchedPair> DisjointBlocks(util::Rng& rng, uint32_t blocks,
                                        uint32_t block_size) {
  std::vector<MatchedPair> edges;
  uint32_t base = 0;
  for (uint32_t c = 0; c < blocks; ++c) {
    for (uint32_t b = 0; b < block_size; ++b) {
      for (uint32_t a = 0; a < block_size; ++a) {
        if (rng.Bernoulli(0.6)) edges.push_back({base + b, base + a});
      }
    }
    base += block_size + 1 + static_cast<uint32_t>(rng.Below(5));  // id gap
  }
  return edges;
}

/// Perfect-chain regime: edges (i, i) and (i, i+1) — maximum matching is
/// always n, but greedy choices can cascade; a known CSF stress shape.
std::vector<MatchedPair> PerfectChain(uint32_t n) {
  std::vector<MatchedPair> edges;
  for (uint32_t i = 0; i < n; ++i) {
    edges.push_back({i, i});
    if (i + 1 < n) edges.push_back({i, i + 1});
  }
  return edges;
}

/// Asserts the full differential contract on one graph:
///  - kMaxMatching (Hopcroft-Karp) is valid and EXACTLY oracle-optimal,
///  - kCsf is valid and never exceeds the optimum.
void CheckAgainstOracle(const std::vector<MatchedPair>& edges,
                        const std::string& context) {
  SCOPED_TRACE(context);
  const size_t optimum = OracleMaxMatchingSize(edges);

  const std::vector<MatchedPair> exact =
      RunMatcher(MatcherKind::kMaxMatching, edges);
  EXPECT_TRUE(OracleIsValidMatching(exact, edges));
  EXPECT_EQ(exact.size(), optimum);

  const std::vector<MatchedPair> csf = RunMatcher(MatcherKind::kCsf, edges);
  EXPECT_TRUE(OracleIsValidMatching(csf, edges));
  EXPECT_LE(csf.size(), optimum);

  // The approximate methods' inline commit rule, replayed standalone: any
  // first-fit scan is a maximal-matching heuristic, so it is valid and
  // within [optimum/2, optimum].
  const std::vector<MatchedPair> first_fit = GreedyFirstFit(edges);
  EXPECT_TRUE(OracleIsValidMatching(first_fit, edges));
  EXPECT_LE(first_fit.size(), optimum);
  EXPECT_GE(2 * first_fit.size(), optimum);
}

std::string Context(const char* regime, uint64_t salt, uint64_t iteration,
                    size_t edges) {
  return std::string(regime) + " salt=" + std::to_string(salt) +
         " iteration=" + std::to_string(iteration) +
         " edges=" + std::to_string(edges) +
         " (rerun with --seed=" + std::to_string(TestSeed()) + ")";
}

constexpr uint64_t kTrialsPerRegime = 220;  // the issue demands >= 200

TEST(MatchingDifferentialTest, SparseRandomGraphsMatchOracle) {
  for (uint64_t i = 0; i < kTrialsPerRegime; ++i) {
    util::Rng rng(TestSeed(1000 + i));
    const uint32_t n_b = 1 + static_cast<uint32_t>(rng.Below(40));
    const uint32_t n_a = 1 + static_cast<uint32_t>(rng.Below(40));
    const auto edges = RandomBipartite(rng, n_b, n_a, 0.08);
    CheckAgainstOracle(edges, Context("sparse", 1000 + i, i, edges.size()));
  }
}

TEST(MatchingDifferentialTest, DenseRandomGraphsMatchOracle) {
  for (uint64_t i = 0; i < kTrialsPerRegime; ++i) {
    util::Rng rng(TestSeed(2000 + i));
    const uint32_t n_b = 2 + static_cast<uint32_t>(rng.Below(18));
    const uint32_t n_a = 2 + static_cast<uint32_t>(rng.Below(18));
    const auto edges = RandomBipartite(rng, n_b, n_a, 0.65);
    CheckAgainstOracle(edges, Context("dense", 2000 + i, i, edges.size()));
  }
}

TEST(MatchingDifferentialTest, SkewedStarGraphsMatchOracle) {
  for (uint64_t i = 0; i < kTrialsPerRegime; ++i) {
    util::Rng rng(TestSeed(3000 + i));
    const uint32_t n_b = 3 + static_cast<uint32_t>(rng.Below(25));
    const uint32_t n_a = 3 + static_cast<uint32_t>(rng.Below(25));
    const auto edges = SkewedStars(rng, n_b, n_a);
    CheckAgainstOracle(edges, Context("skewed", 3000 + i, i, edges.size()));
  }
}

TEST(MatchingDifferentialTest, MultiComponentGraphsMatchOracle) {
  for (uint64_t i = 0; i < kTrialsPerRegime; ++i) {
    util::Rng rng(TestSeed(4000 + i));
    const uint32_t blocks = 2 + static_cast<uint32_t>(rng.Below(4));
    const uint32_t block_size = 2 + static_cast<uint32_t>(rng.Below(6));
    const auto edges = DisjointBlocks(rng, blocks, block_size);
    CheckAgainstOracle(edges,
                       Context("components", 4000 + i, i, edges.size()));
  }
}

TEST(MatchingDifferentialTest, DegenerateGraphsMatchOracle) {
  // Fixed degenerate shapes, each with its known optimum.
  const std::vector<MatchedPair> empty;
  EXPECT_EQ(OracleMaxMatchingSize(empty), 0u);
  EXPECT_TRUE(RunMatcher(MatcherKind::kMaxMatching, empty).empty());
  EXPECT_TRUE(RunMatcher(MatcherKind::kCsf, empty).empty());

  const std::vector<MatchedPair> single = {{7, 3}};
  CheckAgainstOracle(single, "single edge");
  EXPECT_EQ(OracleMaxMatchingSize(single), 1u);

  // Duplicate edges must not inflate the matching.
  const std::vector<MatchedPair> duplicates = {{1, 2}, {1, 2}, {1, 2}, {4, 5}};
  CheckAgainstOracle(duplicates, "duplicate edges");
  EXPECT_EQ(OracleMaxMatchingSize(duplicates), 2u);

  // One b connected to every a (and vice versa): optimum is exactly 1.
  std::vector<MatchedPair> star;
  for (uint32_t a = 0; a < 20; ++a) star.push_back({0, a});
  CheckAgainstOracle(star, "b-star");
  EXPECT_EQ(OracleMaxMatchingSize(star), 1u);

  std::vector<MatchedPair> inverse_star;
  for (uint32_t b = 0; b < 20; ++b) inverse_star.push_back({b, 0});
  CheckAgainstOracle(inverse_star, "a-star");
  EXPECT_EQ(OracleMaxMatchingSize(inverse_star), 1u);

  // Perfect chains of several lengths: the optimum is always n, and
  // Hopcroft-Karp must recover it even though a wrong greedy cascade
  // would lose pairs.
  for (uint32_t n : {1u, 2u, 3u, 8u, 33u}) {
    const auto chain = PerfectChain(n);
    CheckAgainstOracle(chain, "chain n=" + std::to_string(n));
    EXPECT_EQ(OracleMaxMatchingSize(chain), n);
    EXPECT_EQ(RunMatcher(MatcherKind::kMaxMatching, chain).size(), n);
  }

  // Randomized degenerate ids: tiny graphs with huge, colliding user ids
  // exercise the matchers' id compression far from dense [0, n) ranges.
  for (uint64_t i = 0; i < kTrialsPerRegime; ++i) {
    util::Rng rng(TestSeed(5000 + i));
    std::vector<MatchedPair> edges;
    const uint32_t count = static_cast<uint32_t>(rng.Below(12));
    for (uint32_t e = 0; e < count; ++e) {
      edges.push_back({static_cast<UserId>(rng.Below(1u << 30)),
                       static_cast<UserId>(rng.Below(1u << 30))});
    }
    CheckAgainstOracle(edges, Context("huge-ids", 5000 + i, i, edges.size()));
  }
}

// Every matcher's output must also satisfy the library's own one-to-one
// predicate — ties the oracle's validity notion to the production one.
TEST(MatchingDifferentialTest, OutputsSatisfyProductionOneToOnePredicate) {
  for (uint64_t i = 0; i < 50; ++i) {
    util::Rng rng(TestSeed(6000 + i));
    const auto edges = RandomBipartite(rng, 20, 20, 0.3);
    for (MatcherKind kind : {MatcherKind::kCsf, MatcherKind::kMaxMatching}) {
      EXPECT_TRUE(IsOneToOne(RunMatcher(kind, edges)))
          << MatcherName(kind) << " iteration " << i;
    }
  }
}

}  // namespace
}  // namespace csj::matching
