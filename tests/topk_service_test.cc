// Differential test of the top-k cutoff: the best-bound-first walk with
// the strict current-kth cutoff must return BYTE-IDENTICAL rankings —
// same (id, similarity) sequence, same double bits — as exhaustively
// refining every admissible entry, on hundreds of seeded catalogs, for
// both exact methods and several epsilon regimes.

#include "service/topk.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/method.h"
#include "data/community_sampler.h"
#include "data/generator.h"
#include "service/catalog.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csj::service {
namespace {

/// One seeded catalog + query. Communities are kept tiny (12-30 users)
/// so the suite refines thousands of exact joins in seconds; the cutoff
/// logic is size-oblivious.
struct Scenario {
  CommunityCatalog catalog;
  Community query{1};
};

/// Builds catalog entries clustered around anchors so the bound ordering
/// sees real structure (near-duplicates, graded similarity, uniform
/// noise) instead of uniformly-mediocre candidates.
void BuildScenario(Scenario* scenario, uint64_t salt, Epsilon eps,
                   bool plant_ties) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(
      static_cast<data::Category>(salt % data::kNumCategories));
  const uint32_t entries = 6 + static_cast<uint32_t>(rng.Below(7));  // 6-12

  // The query: a fresh community mid-band so most entries are admissible.
  const auto query_size = static_cast<uint32_t>(rng.Between(14, 24));
  scenario->query = data::MakeCommunity(gen, query_size, rng);

  for (uint64_t id = 1; id <= entries; ++id) {
    const auto size = static_cast<uint32_t>(rng.Between(12, 30));
    Community community(gen.d());
    const double roll = rng.NextDouble();
    if (roll < 0.5) {
      // Planted against the query at a graded similarity target, capped
      // so the planted user count never exceeds the query's size (the
      // sampler's precondition).
      data::CoupleSpec spec;
      spec.size_b = size;
      spec.eps = eps;
      const double target = 0.1 + 0.15 * static_cast<double>(id % 5);
      const double cap = 0.9 * static_cast<double>(scenario->query.size()) /
                         static_cast<double>(size);
      spec.target_similarity = std::min(target, cap);
      community = data::PlantCommunityAgainst(scenario->query, gen, spec, rng);
    } else {
      community = data::MakeCommunity(gen, size, rng);
    }
    scenario->catalog.Upsert(id, std::move(community));
  }

  if (plant_ties) {
    // Exact duplicates of an existing entry: identical similarity AND
    // identical bound, so both the kth-tie rule (a candidate with bound
    // == kth similarity must refine) and the id-ascending tie-break in
    // the final ranking are exercised.
    const CatalogEntry dup = scenario->catalog.Get(1);
    ASSERT_NE(dup.community, nullptr);
    scenario->catalog.Upsert(entries + 1, Community(*dup.community));
    scenario->catalog.Upsert(entries + 2, Community(*dup.community));
  }
}

/// The two arms differ ONLY in use_bound_cutoff; everything else —
/// including the deterministic serial execution — is shared.
void ExpectCutoffIdentity(const Scenario& scenario, Method method,
                          Epsilon eps, uint32_t k, uint64_t* bound_skipped,
                          uint64_t* refined_saved) {
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = k;
  options.method = method;
  options.join.eps = eps;

  options.use_bound_cutoff = true;
  const TopKResult pruned = service.Query(scenario.query, options);
  options.use_bound_cutoff = false;
  const TopKResult exhaustive = service.Query(scenario.query, options);

  EXPECT_FALSE(pruned.deadline_expired);
  EXPECT_FALSE(exhaustive.deadline_expired);
  // Byte identity: TopKEntry::operator== compares the doubles exactly.
  ASSERT_EQ(pruned.entries.size(), exhaustive.entries.size());
  for (size_t i = 0; i < pruned.entries.size(); ++i) {
    EXPECT_EQ(pruned.entries[i], exhaustive.entries[i])
        << "rank " << i << " diverged (method "
        << MethodName(method) << ", eps " << eps << ")";
  }
  // The exhaustive arm by definition refines every admissible entry.
  EXPECT_EQ(exhaustive.stats.refined, exhaustive.stats.admissible);
  EXPECT_EQ(exhaustive.stats.bound_skipped, 0u);
  EXPECT_LE(pruned.stats.refined, exhaustive.stats.refined);
  EXPECT_EQ(pruned.stats.refined + pruned.stats.bound_skipped,
            pruned.stats.admissible);
  *bound_skipped += pruned.stats.bound_skipped;
  *refined_saved += exhaustive.stats.refined - pruned.stats.refined;
}

TEST(TopKServiceTest, CutoffIdenticalToExhaustiveRefine) {
  const Method methods[] = {Method::kExMinMax, Method::kExBaseline};
  const Epsilon eps_values[] = {0, 2, 8};
  // 100 scenarios x 2 methods x 3 eps = 600 seeded catalog comparisons
  // (>= the 500 the acceptance bar asks for). Every 4th scenario plants
  // duplicate entries to force exact ties at the kth slot.
  constexpr uint64_t kScenarios = 100;
  uint64_t bound_skipped = 0;
  uint64_t refined_saved = 0;
  for (uint64_t s = 0; s < kScenarios; ++s) {
    for (const Epsilon eps : eps_values) {
      Scenario scenario;
      BuildScenario(&scenario, /*salt=*/s * 31 + eps, eps,
                    /*plant_ties=*/s % 4 == 0);
      if (::testing::Test::HasFatalFailure()) return;
      for (const Method method : methods) {
        // Small k relative to the catalog so the cutoff has room to act.
        ExpectCutoffIdentity(scenario, method, eps, /*k=*/3, &bound_skipped,
                             &refined_saved);
      }
    }
  }
  // The cutoff must actually fire across the suite — otherwise this test
  // only proves the trivial identity.
  EXPECT_GT(bound_skipped, 0u);
  EXPECT_GT(refined_saved, 0u);
}

TEST(TopKServiceTest, CutoffIdenticalUnderBatchedParallelWaves) {
  // Parallel waves (query_threads > 1: one join per applied thread)
  // refine extra candidates per wave; the merged ranking must not change.
  // An own two-thread pool pins the wave size whatever the host's cores.
  util::ThreadPool pool(2);
  uint64_t skipped = 0;
  uint64_t saved = 0;
  for (uint64_t s = 0; s < 16; ++s) {
    Scenario scenario;
    BuildScenario(&scenario, /*salt=*/7000 + s, /*eps=*/2,
                  /*plant_ties=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    const TopKSimilarService service(&scenario.catalog);

    // k = 1 keeps the cutoff as tight as possible, so it demonstrably
    // fires even in small catalogs; ranking identity is what matters.
    TopKOptions serial;
    serial.k = 1;
    serial.join.eps = 2;
    serial.use_bound_cutoff = false;
    const TopKResult oracle = service.Query(scenario.query, serial);

    TopKOptions batched = serial;
    batched.use_bound_cutoff = true;
    batched.query_threads = 2;
    batched.pool = &pool;
    const TopKResult waved = service.Query(scenario.query, batched);

    ASSERT_EQ(waved.entries.size(), oracle.entries.size());
    for (size_t i = 0; i < waved.entries.size(); ++i) {
      EXPECT_EQ(waved.entries[i], oracle.entries[i]) << "rank " << i;
    }
    skipped += waved.stats.bound_skipped;
    saved += oracle.stats.refined - waved.stats.refined;
  }
  EXPECT_GT(skipped + saved, 0u);
}

TEST(TopKServiceTest, RankingIsSimilarityDescThenIdAsc) {
  Scenario scenario;
  BuildScenario(&scenario, /*salt=*/123, /*eps=*/2, /*plant_ties=*/true);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 100;  // everything admissible
  options.join.eps = 2;
  const TopKResult result = service.Query(scenario.query, options);
  ASSERT_GT(result.entries.size(), 1u);
  for (size_t i = 1; i < result.entries.size(); ++i) {
    const TopKEntry& prev = result.entries[i - 1];
    const TopKEntry& here = result.entries[i];
    EXPECT_TRUE(prev.similarity > here.similarity ||
                (prev.similarity == here.similarity && prev.id < here.id))
        << "rank " << i << " out of order";
  }
}

TEST(TopKServiceTest, DuplicateEntriesTieBreakAscending) {
  // Three byte-identical communities: similarities are exactly equal, so
  // the ranking among them must be id-ascending regardless of the walk.
  Scenario scenario;
  util::Rng rng(testing::TestSeed(55));
  data::VkLikeGenerator gen(data::Category::kMusic);
  scenario.query = data::MakeCommunity(gen, 20, rng);
  const Community base = data::MakeCommunity(gen, 20, rng);
  scenario.catalog.Upsert(11, Community(base));
  scenario.catalog.Upsert(3, Community(base));
  scenario.catalog.Upsert(7, Community(base));

  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 2;  // k smaller than the tie group: the cutoff sees a tie
  options.join.eps = 2;
  const TopKResult pruned = service.Query(scenario.query, options);
  options.use_bound_cutoff = false;
  const TopKResult exhaustive = service.Query(scenario.query, options);

  ASSERT_EQ(pruned.entries.size(), 2u);
  EXPECT_EQ(pruned.entries[0].id, 3u);
  EXPECT_EQ(pruned.entries[1].id, 7u);
  ASSERT_EQ(exhaustive.entries.size(), 2u);
  EXPECT_EQ(pruned.entries[0], exhaustive.entries[0]);
  EXPECT_EQ(pruned.entries[1], exhaustive.entries[1]);
}

TEST(TopKServiceTest, StatsAccountForEveryEntry) {
  Scenario scenario;
  BuildScenario(&scenario, /*salt=*/9, /*eps=*/2, /*plant_ties=*/false);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 3;
  options.join.eps = 2;
  const TopKResult result = service.Query(scenario.query, options);
  EXPECT_EQ(result.stats.catalog_entries, scenario.catalog.size());
  EXPECT_EQ(result.stats.admissible + result.stats.inadmissible,
            result.stats.catalog_entries);
  EXPECT_EQ(result.stats.refined + result.stats.bound_skipped,
            result.stats.admissible);
  EXPECT_LE(result.entries.size(), 3u);
}

TEST(TopKServiceTest, ExpiredDeadlineReturnsFlaggedPartial) {
  Scenario scenario;
  BuildScenario(&scenario, /*salt=*/77, /*eps=*/2, /*plant_ties=*/false);
  const TopKSimilarService service(&scenario.catalog);
  TopKOptions options;
  options.k = 3;
  options.join.eps = 2;
  // A deadline already in the past: the query must bail at the first
  // phase boundary, flag the result, and refine nothing.
  const Deadline expired =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const TopKResult result = service.Query(scenario.query, options, expired);
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_EQ(result.stats.refined, 0u);
}

}  // namespace
}  // namespace csj::service
