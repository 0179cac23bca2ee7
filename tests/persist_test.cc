// Tests for the persistent catalog store: segment roundtrip, log-tail
// replay, generation turnover, and the zero-copy restore path's
// copy-on-write discipline.

#include "persist/store.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "core/method.h"
#include "core/signature.h"
#include "data/generator.h"
#include "persist/fsck.h"
#include "persist/segment.h"
#include "service/catalog.h"
#include "service/deep_compare.h"
#include "service/topk.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::persist {
namespace {

Community MakeTestCommunity(uint32_t size, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(data::Category::kSport);
  return data::MakeCommunity(gen, size, rng);
}

/// A fresh store directory under TMPDIR, removed by the next run of the
/// same test (mkdtemp keeps parallel test shards from colliding).
std::string FreshDir() {
  std::string tmpl = ::testing::TempDir() + "csj_persist_XXXXXX";
  const char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

service::CommunityCatalog::Options CatalogOpts(EncodingCache* cache) {
  service::CommunityCatalog::Options options;
  options.cache = cache;
  options.warm_eps = 2;
  options.signatures = SignatureOptions{};
  return options;
}

constexpr double kTau = 0.1;

/// Restores the store's state into a fresh catalog (own cold cache) and
/// requires deep byte-identity with `expected`, plus byte-identical top-k
/// rankings under the served method (Ex-MinMax, whose encodings the store
/// seals) and under Ex-Baseline (whose community window is never sealed
/// and gets built on first use on both sides).
void ExpectRestoresIdentical(const std::string& dir,
                             const service::CommunityCatalog& expected) {
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  EncodingCache cache;
  service::CommunityCatalog restored(CatalogOpts(&cache));
  ASSERT_TRUE(store->RestoreInto(&restored, &error)) << error;
  EXPECT_EQ(restored.size(), expected.size());
  EXPECT_EQ(restored.latest_version(), expected.latest_version());
  EXPECT_TRUE(service::CatalogsIdentical(expected, restored,
                                         /*eps=*/2, kTau));

  const service::TopKSimilarService live_service(&expected);
  const service::TopKSimilarService restored_service(&restored);
  const Community query = MakeTestCommunity(15, 4242);
  for (const Method method : {Method::kExMinMax, Method::kExBaseline}) {
    SCOPED_TRACE(MethodName(method));
    service::TopKOptions topk;
    topk.k = 5;
    topk.method = method;
    topk.join.eps = 2;
    topk.join.cache = expected.options().cache;
    const service::TopKResult live = live_service.Query(query, topk);
    topk.join.cache = &cache;
    const service::TopKResult recovered = restored_service.Query(query, topk);
    EXPECT_FALSE(live.entries.empty());
    EXPECT_EQ(recovered.entries, live.entries);
  }
}

TEST(PersistStoreTest, FreshStoreOpensEmpty) {
  const std::string dir = FreshDir();
  StoreOptions options;
  options.dir = dir;
  std::string error;
  OpenStats stats;
  auto store = Store::Open(options, &error, &stats);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_FALSE(stats.opened_existing);
  EXPECT_EQ(store->generation(), 0u);
  EXPECT_FALSE(store->has_data());

  // The fresh open committed a superblock: the next open finds it.
  auto again = Store::Open(options, &error, &stats);
  ASSERT_NE(again, nullptr) << error;
  EXPECT_TRUE(stats.opened_existing);
}

TEST(PersistStoreTest, CheckpointRoundTripIsByteIdentical) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  for (uint64_t id = 1; id <= 24; ++id) {
    catalog.Upsert(id * 3,
                   MakeTestCommunity(12 + static_cast<uint32_t>(id % 7), id));
  }
  catalog.Upsert(9, MakeTestCommunity(20, 100));  // replaced entry
  catalog.Remove(12);

  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  CheckpointStats save;
  ASSERT_TRUE(store->Checkpoint(catalog, &error, &save)) << error;
  EXPECT_EQ(save.generation, 1u);
  EXPECT_EQ(save.entries, catalog.size());

  ExpectRestoresIdentical(dir, catalog);
}

/// Checkpoints 10 entries into a fresh store and returns its directory.
std::string SealTenEntries(service::CommunityCatalog* catalog) {
  for (uint64_t id = 1; id <= 10; ++id) {
    catalog->Upsert(id,
                    MakeTestCommunity(12 + static_cast<uint32_t>(id), id));
  }
  const std::string dir = FreshDir();
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  EXPECT_NE(store, nullptr) << error;
  if (store != nullptr) {
    EXPECT_TRUE(store->Checkpoint(*catalog, &error)) << error;
  }
  return dir;
}

/// Reseals `dir`'s seg-1 from its own sections after `edit` has changed
/// the list — appended a section, or repointed one at a rewritten copy
/// kept in `payload` — with fresh checksums, so only the shape rules can
/// catch the change.
void Reseal(const std::string& dir,
            const std::function<void(const MappedSegment&,
                                     std::vector<SectionSpec>*,
                                     std::vector<uint32_t>*)>& edit) {
  const std::string seg = dir + "/seg-1.csj";
  std::string error;
  {
    auto mapped = MappedSegment::Map(seg, false, false, &error);
    ASSERT_NE(mapped, nullptr) << error;
    std::vector<SectionSpec> sections;
    for (const SectionDesc& desc : mapped->sections()) {
      sections.push_back({static_cast<SectionKind>(desc.kind), desc.elem_size,
                          mapped->data() + desc.offset, desc.byte_size});
    }
    std::vector<uint32_t> payload;
    edit(*mapped, &sections, &payload);
    ASSERT_TRUE(WriteSegment(seg + ".old", mapped->header(), sections, &error))
        << error;
  }
  ASSERT_EQ(std::rename((seg + ".old").c_str(), seg.c_str()), 0);
}

/// Reseals `dir`'s seg-1 with every section it has plus one of `kind`
/// whose payload `make_payload` derives from the mapped segment — the
/// shape of a segment sealed before the writer retired that kind.
void ResealWithSection(
    const std::string& dir, uint32_t kind,
    const std::function<std::vector<uint32_t>(const MappedSegment&)>&
        make_payload) {
  Reseal(dir, [&](const MappedSegment& mapped,
                  std::vector<SectionSpec>* sections,
                  std::vector<uint32_t>* payload) {
    *payload = make_payload(mapped);
    sections->push_back({static_cast<SectionKind>(kind), 4, payload->data(),
                         payload->size() * sizeof(uint32_t)});
  });
}

/// Each entry's user count, in segment order.
std::vector<uint32_t> UserCounts(const MappedSegment& segment) {
  const auto prefix = segment.Column<uint64_t>(SectionKind::kUsersPrefix);
  std::vector<uint32_t> users;
  for (size_t i = 0; i + 1 < prefix.size(); ++i) {
    users.push_back(static_cast<uint32_t>(prefix[i + 1] - prefix[i]));
  }
  return users;
}

FsckReport FsckOf(const std::string& dir) {
  FsckOptions fsck;
  fsck.dir = dir;
  FsckReport report;
  EXPECT_TRUE(FsckStore(fsck, &report));
  return report;
}

/// Restoring `dir` into a fresh catalog fails with the graceful "run
/// csj_fsck" error, and csj_fsck reports the damage as fatal.
void ExpectRestoreRefused(const std::string& dir) {
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  EncodingCache cache;
  service::CommunityCatalog restored(CatalogOpts(&cache));
  EXPECT_FALSE(store->RestoreInto(&restored, &error));
  EXPECT_NE(error.find("csj_fsck"), std::string::npos) << error;
  EXPECT_FALSE(FsckOf(dir).clean());
}

TEST(PersistStoreTest, SegmentWithRetiredWindowSectionStillRestores) {
  // Segments sealed before the Baseline window left the warmup carry one
  // more section, kind 24. Such a store must still restore byte-identical
  // and verify clean: readers skip the retired section.
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  const std::string dir = SealTenEntries(&catalog);
  // Shaped like the old community windows: as long as the EncodedA ones.
  ResealWithSection(dir, 24, [](const MappedSegment& mapped) {
    const auto windows = mapped.Column<Count>(SectionKind::kEncAWindow);
    return std::vector<uint32_t>(windows.begin(), windows.end());
  });

  ExpectRestoresIdentical(dir, catalog);
  const FsckReport report = FsckOf(dir);
  EXPECT_TRUE(report.clean())
      << (report.findings.empty() ? "" : report.findings[0].message);
}

TEST(PersistStoreTest, SegmentWithRetiredSampledSectionStillRestores) {
  // Segments sealed while sketches could be subsampled carry kind 11, one
  // sketched-user count per entry; every serving writer stored the user
  // count itself. Such a store restores byte-identical and verifies
  // clean: readers check the values, then skip the section.
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  const std::string dir = SealTenEntries(&catalog);
  ResealWithSection(dir, 11, UserCounts);

  ExpectRestoresIdentical(dir, catalog);
  const FsckReport report = FsckOf(dir);
  EXPECT_TRUE(report.clean())
      << (report.findings.empty() ? "" : report.findings[0].message);
}

TEST(PersistStoreTest, RetiredSampledCountBelowUsersFailsGracefully) {
  // A stored sampled count other than the user count would lower the
  // prescreen cap (false dismissals) or, at 0, abort in the sketch view.
  // Restore must refuse it with the graceful "run csj_fsck" error.
  for (const bool zero : {true, false}) {
    SCOPED_TRACE(zero ? "sampled 0" : "sampled users - 1");
    EncodingCache cache;
    service::CommunityCatalog catalog(CatalogOpts(&cache));
    const std::string dir = SealTenEntries(&catalog);
    ResealWithSection(dir, 11, [zero](const MappedSegment& mapped) {
      std::vector<uint32_t> sampled = UserCounts(mapped);
      sampled[3] = zero ? 0 : sampled[3] - 1;
      return sampled;
    });

    ExpectRestoreRefused(dir);
  }
}

TEST(PersistStoreTest, EncodedRealIdOutsideUsersFailsGracefully) {
  // Every join indexes the community's users (and CSF its nodes) by the
  // stored real ids. One at the entry's user count must be refused at
  // restore, not dereferenced by the next query.
  for (const SectionKind kind :
       {SectionKind::kEncBReal, SectionKind::kEncAReal}) {
    SCOPED_TRACE(kind == SectionKind::kEncBReal ? "b_real" : "a_real");
    EncodingCache cache;
    service::CommunityCatalog catalog(CatalogOpts(&cache));
    const std::string dir = SealTenEntries(&catalog);
    Reseal(dir, [kind](const MappedSegment& mapped,
                       std::vector<SectionSpec>* sections,
                       std::vector<uint32_t>* payload) {
      const auto real = mapped.Column<UserId>(kind);
      payload->assign(real.begin(), real.end());
      const auto prefix = mapped.Column<uint64_t>(SectionKind::kUsersPrefix);
      (*payload)[prefix[3] + 1] = UserCounts(mapped)[3];
      for (SectionSpec& spec : *sections) {
        if (spec.kind == kind) spec.data = payload->data();
      }
    });
    ExpectRestoreRefused(dir);
  }
}

TEST(PersistStoreTest, LogTailReplaysOnTopOfSealedSegment) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  for (uint64_t id = 1; id <= 10; ++id) {
    catalog.Upsert(id, MakeTestCommunity(16, id));
  }

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    // Mutations past the checkpoint: replace, add, remove — including a
    // remove of a SEGMENT entry, which replay must apply after the
    // segment image installs.
    catalog.Upsert(3, MakeTestCommunity(24, 200));
    catalog.Upsert(99, MakeTestCommunity(18, 201));
    catalog.Remove(7);
    catalog.Upsert(99, MakeTestCommunity(19, 202));
    store->StopLogging(&catalog);
  }
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, LogOnlyStoreRecoversWithoutAnySegment) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    // No checkpoint ever: the whole catalog lives in the log tail (the
    // crashed-before-first-checkpoint shape).
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    for (uint64_t id = 1; id <= 8; ++id) {
      catalog.Upsert(id, MakeTestCommunity(12, id));
    }
    catalog.Remove(5);
    store->StopLogging(&catalog);
  }
  {
    StoreOptions reopen;
    reopen.dir = dir;
    auto store = Store::Open(reopen, &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->generation(), 0u);
    EXPECT_TRUE(store->has_data());
  }
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, RestartedLoggingKeepsEarlierSessionsRecords) {
  // Regression: StartLogging must resume at the log's CURRENT end, not
  // the open-time length — a stop/start cycle used to truncate away
  // every record the first session had already fsync-acknowledged.
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    catalog.Upsert(1, MakeTestCommunity(14, 1));
    catalog.Upsert(2, MakeTestCommunity(15, 2));
    store->StopLogging(&catalog);

    // Second session on the same store object and the same log file.
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    catalog.Upsert(3, MakeTestCommunity(16, 3));
    catalog.Remove(1);
    store->StopLogging(&catalog);

    // And a third, to prove the end offset keeps advancing.
    ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
    catalog.Upsert(4, MakeTestCommunity(17, 4));
    store->StopLogging(&catalog);
  }
  {
    StoreOptions reopen;
    reopen.dir = dir;
    OpenStats stats;
    auto store = Store::Open(reopen, &error, &stats);
    ASSERT_NE(store, nullptr) << error;
    EncodingCache recovered_cache;
    service::CommunityCatalog recovered(CatalogOpts(&recovered_cache));
    ASSERT_TRUE(store->RestoreInto(&recovered, &error, &stats)) << error;
    EXPECT_EQ(stats.log_records_replayed, 5u);  // 4 upserts + 1 remove
  }
  ExpectRestoresIdentical(dir, catalog);
}

TEST(PersistStoreTest, CheckpointAdvancesGenerationAndDropsOldFiles) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  catalog.Upsert(1, MakeTestCommunity(16, 1));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
  catalog.Upsert(2, MakeTestCommunity(16, 2));
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  EXPECT_EQ(store->generation(), 2u);

  // Old generation's files are gone; the log rolled to the new one.
  EXPECT_NE(::access(store->SegmentPath(2).c_str(), F_OK), -1);
  EXPECT_EQ(::access(store->SegmentPath(1).c_str(), F_OK), -1);
  EXPECT_EQ(::access(store->LogPath(1).c_str(), F_OK), -1);

  // The rolled log still records post-checkpoint mutations.
  catalog.Upsert(3, MakeTestCommunity(16, 3));
  store->StopLogging(&catalog);
  store.reset();
  ExpectRestoresIdentical(dir, catalog);

  FsckOptions fsck;
  fsck.dir = dir;
  FsckReport report;
  ASSERT_TRUE(FsckStore(fsck, &report));
  EXPECT_TRUE(report.clean())
      << (report.findings.empty() ? "" : report.findings[0].message);
}

TEST(PersistStoreTest, RestoredEntriesAreCopyOnWriteOverTheMapping) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  catalog.Upsert(5, MakeTestCommunity(16, 5));
  catalog.Upsert(6, MakeTestCommunity(16, 6));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  }

  EncodingCache restored_cache;
  service::CommunityCatalog restored(CatalogOpts(&restored_cache));
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->RestoreInto(&restored, &error)) << error;

  // A reader pins the mapped (view-backed) entry...
  const service::CatalogEntry pinned = restored.Get(5);
  ASSERT_NE(pinned.community, nullptr);
  const std::vector<Count> before(pinned.community->flat().begin(),
                                  pinned.community->flat().end());
  const uint64_t pinned_version = pinned.version;

  // ...then the entry is replaced and the pinned view must be untouched
  // (copy-on-write: a new buffer installs, the mapped one stays alive).
  restored.Upsert(5, MakeTestCommunity(32, 500));
  ASSERT_NE(restored.Get(5).community, nullptr);
  EXPECT_NE(restored.Get(5).version, pinned_version);
  EXPECT_TRUE(std::equal(pinned.community->flat().begin(),
                         pinned.community->flat().end(), before.begin(),
                         before.end()));

  // The store (and its mapping) can be released while views are pinned:
  // the segment keepalive travels inside the shared_ptr control block.
  store.reset();
  EXPECT_EQ(pinned.community->size(), 16u);
  EXPECT_TRUE(std::equal(pinned.community->flat().begin(),
                         pinned.community->flat().end(), before.begin(),
                         before.end()));
}

TEST(PersistStoreTest, RestoreRejectsMismatchedWarmParameters) {
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  catalog.Upsert(1, MakeTestCommunity(16, 1));

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  }

  // A reader configured for different warm parameters must be refused:
  // the segment's encoded artifacts were built for (eps=2, parts=4).
  EncodingCache other_cache;
  service::CommunityCatalog::Options mismatched = CatalogOpts(&other_cache);
  mismatched.warm_eps = 3;
  service::CommunityCatalog wrong(mismatched);
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_FALSE(store->RestoreInto(&wrong, &error));
  EXPECT_FALSE(error.empty());
}

TEST(PersistStoreTest, RestoreRejectsCorruptVersionColumnGracefully) {
  // The versions column lives in un-CRC'd payload bytes; a corrupt
  // value must surface as the graceful "run csj_fsck" shape error, not
  // abort inside RestoreBatch.
  const std::string dir = FreshDir();
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  for (uint64_t id = 1; id <= 4; ++id) {
    catalog.Upsert(id, MakeTestCommunity(12, id));
  }

  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  }

  // Locate the first version's high byte, then blow it up (a value far
  // past header.next_version).
  const std::string seg = dir + "/seg-1.csj";
  uint64_t corrupt_at = 0;
  {
    auto segment = MappedSegment::Map(seg, false, false, &error);
    ASSERT_NE(segment, nullptr) << error;
    const SectionDesc* desc = segment->Find(SectionKind::kVersions);
    ASSERT_NE(desc, nullptr);
    corrupt_at = desc->offset + 7;
  }
  {
    FILE* file = std::fopen(seg.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fseek(file, static_cast<long>(corrupt_at), SEEK_SET), 0);
    ASSERT_EQ(std::fputc(0xFF, file), 0xFF);
    std::fclose(file);
  }

  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  EncodingCache restored_cache;
  service::CommunityCatalog restored(CatalogOpts(&restored_cache));
  EXPECT_FALSE(store->RestoreInto(&restored, &error));
  EXPECT_NE(error.find("csj_fsck"), std::string::npos) << error;
}

}  // namespace
}  // namespace csj::persist
