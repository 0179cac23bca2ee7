// Tests for the sharded community catalog: versioned upserts,
// copy-on-write snapshots, cache warmup, and live couple sessions.

#include "service/catalog.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/similarity.h"
#include "data/generator.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::service {
namespace {

Community MakeTestCommunity(uint32_t size, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(data::Category::kSport);
  return data::MakeCommunity(gen, size, rng);
}

TEST(CatalogTest, UpsertGetRemoveRoundTrip) {
  CommunityCatalog catalog;
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.Get(7).community, nullptr);
  EXPECT_FALSE(catalog.Remove(7));

  const uint64_t v1 = catalog.Upsert(7, MakeTestCommunity(20, 1));
  EXPECT_GT(v1, 0u);
  EXPECT_EQ(catalog.size(), 1u);

  const CatalogEntry entry = catalog.Get(7);
  ASSERT_NE(entry.community, nullptr);
  EXPECT_EQ(entry.id, 7u);
  EXPECT_EQ(entry.version, v1);
  EXPECT_EQ(entry.community->size(), 20u);

  EXPECT_TRUE(catalog.Remove(7));
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.Get(7).community, nullptr);
  EXPECT_FALSE(catalog.Remove(7));
}

TEST(CatalogTest, VersionsAreCatalogWideMonotonic) {
  CommunityCatalog catalog;
  uint64_t previous = 0;
  for (uint64_t id = 1; id <= 16; ++id) {
    const uint64_t version = catalog.Upsert(id, MakeTestCommunity(16, id));
    EXPECT_GT(version, previous);
    previous = version;
  }
  // Replacing an existing id still advances the global version.
  const uint64_t replaced = catalog.Upsert(3, MakeTestCommunity(16, 99));
  EXPECT_GT(replaced, previous);
  EXPECT_EQ(catalog.latest_version(), replaced);
  EXPECT_EQ(catalog.Get(3).version, replaced);
}

TEST(CatalogTest, UpsertIsCopyOnWrite) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(24, 1));

  // A reader pins the current entry...
  const CatalogEntry pinned = catalog.Get(1);
  ASSERT_NE(pinned.community, nullptr);
  const Community* pinned_buffer = pinned.community.get();
  const uint32_t pinned_size = pinned.community->size();

  // ...then the catalog replaces it. The pinned buffer must be untouched:
  // a new shared buffer is installed, the old one stays alive and equal.
  catalog.Upsert(1, MakeTestCommunity(32, 2));
  const CatalogEntry current = catalog.Get(1);
  ASSERT_NE(current.community, nullptr);
  EXPECT_NE(current.community.get(), pinned_buffer);
  EXPECT_GT(current.version, pinned.version);
  EXPECT_EQ(pinned.community->size(), pinned_size);
  EXPECT_EQ(current.community->size(), 32u);

  // Remove() drops the catalog's reference, not the reader's.
  EXPECT_TRUE(catalog.Remove(1));
  EXPECT_EQ(pinned.community->size(), pinned_size);
}

TEST(CatalogTest, SnapshotIsAscendingById) {
  CommunityCatalog::Options options;
  options.shards = 4;  // force ids to straddle shards
  CommunityCatalog catalog(options);
  const std::vector<uint64_t> ids = {42, 7, 1000, 3, 19, 256, 8, 77};
  for (const uint64_t id : ids) {
    catalog.Upsert(id, MakeTestCommunity(16, id));
  }
  const std::vector<CatalogEntry> snapshot = catalog.Snapshot();
  ASSERT_EQ(snapshot.size(), ids.size());
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].id, snapshot[i].id);
  }
  for (const CatalogEntry& entry : snapshot) {
    EXPECT_NE(entry.community, nullptr);
  }
}

TEST(CatalogTest, DigestMatchesRecomputation) {
  CommunityCatalog catalog;
  catalog.Upsert(5, MakeTestCommunity(20, 5));
  const CatalogEntry entry = catalog.Get(5);
  const CommunityDigest expected = DigestCommunity(*entry.community);
  EXPECT_EQ(entry.digest.fingerprint, expected.fingerprint);
  EXPECT_EQ(entry.digest.max_counter, expected.max_counter);
}

TEST(CatalogTest, UpsertWarmsTheEncodingCache) {
  EncodingCache cache;
  CommunityCatalog::Options options;
  options.cache = &cache;
  options.warm_eps = 2;
  options.warm_parts = 4;
  CommunityCatalog catalog(options);

  catalog.Upsert(1, MakeTestCommunity(30, 1));
  const EncodingCache::Stats after_warm = cache.GetStats();
  // Warmup itself builds (misses), it does not hit.
  EXPECT_EQ(after_warm.hits, 0u);
  EXPECT_GT(after_warm.misses, 0u);

  // A query doing the same lookups Ex-MinMax does must now hit for both
  // buffers the warmup built: the B side and the A side.
  const CatalogEntry entry = catalog.Get(1);
  const Encoder encoder(entry.community->d(), options.warm_eps,
                        options.warm_parts);
  cache.GetEncodedB(*entry.community, entry.digest, options.warm_eps,
                    encoder.parts(), nullptr);
  cache.GetEncodedA(*entry.community, entry.digest, options.warm_eps,
                    encoder.parts(), nullptr);
  const EncodingCache::Stats after_query = cache.GetStats();
  EXPECT_EQ(after_query.hits, after_warm.hits + 2);
  EXPECT_EQ(after_query.misses, after_warm.misses);

  // The Baseline community window is not warmed: the first Baseline
  // lookup builds it.
  cache.GetCommunityWindow(*entry.community, entry.digest, nullptr);
  EXPECT_EQ(cache.GetStats().misses, after_query.misses + 1);
}

TEST(CatalogTest, ConcurrentUpsertsKeepVersionsUnique) {
  CommunityCatalog catalog;
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kPerThread = 16;
  std::vector<std::vector<uint64_t>> versions(kThreads);
  std::vector<std::thread> crew;
  for (uint32_t t = 0; t < kThreads; ++t) {
    crew.emplace_back([&, t] {
      for (uint32_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = t * kPerThread + i;
        versions[t].push_back(
            catalog.Upsert(id, MakeTestCommunity(12, id + 1)));
      }
    });
  }
  for (std::thread& thread : crew) thread.join();

  std::vector<uint64_t> all;
  for (const auto& mine : versions) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "two upserts were issued the same version";
  EXPECT_EQ(catalog.size(), kThreads * kPerThread);
}

TEST(LiveCoupleSessionTest, MatchesBatchExactSimilarity) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(40, 1));

  // Query sized into the admissible band: ceil(40/2)=20 <= 30 <= 40.
  const Community query = MakeTestCommunity(30, 2);
  JoinOptions join;
  join.eps = 1;
  const auto session = catalog.AttachLive(query, 1, join);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->live_subscribers(), query.size());
  EXPECT_TRUE(session->SizesAdmissible());

  const CatalogEntry entry = catalog.Get(1);
  const auto batch =
      ComputeSimilarity(Method::kExMinMax, query, *entry.community, join);
  ASSERT_TRUE(batch.has_value());
  EXPECT_DOUBLE_EQ(session->Similarity(), batch->Similarity());
}

TEST(LiveCoupleSessionTest, StaleTracksCatalogChurn) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(24, 1));
  const Community query = MakeTestCommunity(20, 2);
  JoinOptions join;

  const auto session = catalog.AttachLive(query, 1, join);
  ASSERT_NE(session, nullptr);
  EXPECT_FALSE(session->Stale());
  const double pinned_similarity = session->Similarity();

  // Replacing the entry makes the session stale but NOT invalid: it stays
  // exact against the pinned snapshot.
  catalog.Upsert(1, MakeTestCommunity(28, 3));
  EXPECT_TRUE(session->Stale());
  EXPECT_DOUBLE_EQ(session->Similarity(), pinned_similarity);

  // Removal is also staleness.
  const auto session2 = catalog.AttachLive(query, 1, join);
  ASSERT_NE(session2, nullptr);
  EXPECT_FALSE(session2->Stale());
  catalog.Remove(1);
  EXPECT_TRUE(session2->Stale());
}

TEST(LiveCoupleSessionTest, RejectsAbsentIdAndDimensionMismatch) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(24, 1));
  const Community query = MakeTestCommunity(20, 2);
  JoinOptions join;
  EXPECT_EQ(catalog.AttachLive(query, 999, join), nullptr);

  Community other_d(query.d() + 1);
  std::vector<Count> vec(other_d.d(), 1);
  other_d.AddUser(vec);
  EXPECT_EQ(catalog.AttachLive(other_d, 1, join), nullptr);
}

TEST(LiveCoupleSessionTest, SubscriberChurnUpdatesSimilarity) {
  CommunityCatalog catalog;
  catalog.Upsert(1, MakeTestCommunity(40, 1));
  const Community query = MakeTestCommunity(30, 2);
  JoinOptions join;
  const auto session = catalog.AttachLive(query, 1, join);
  ASSERT_NE(session, nullptr);

  // Adding a clone of a catalog user must keep the matching exact: verify
  // against the batch join of the grown query.
  const CatalogEntry entry = catalog.Get(1);
  const auto handle = session->AddSubscriber(entry.community->User(0));
  Community grown(query);
  grown.AddUser(entry.community->User(0));
  const auto batch =
      ComputeSimilarity(Method::kExMinMax, grown, *entry.community, join);
  ASSERT_TRUE(batch.has_value());
  EXPECT_DOUBLE_EQ(session->Similarity(), batch->Similarity());

  session->RemoveSubscriber(handle);
  const auto original =
      ComputeSimilarity(Method::kExMinMax, query, *entry.community, join);
  ASSERT_TRUE(original.has_value());
  EXPECT_DOUBLE_EQ(session->Similarity(), original->Similarity());
}

}  // namespace
}  // namespace csj::service
