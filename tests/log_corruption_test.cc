// Seeded corruption of a mutation log. A log of mixed upserts and
// removes is written with LogWriter, then a fixed budget of byte flips,
// truncations and splices is applied to copies of it. For every copy
// ReadLog must return; after a flip or a truncation the records it
// yields must be a prefix of the written ones, and a store opened over
// the copy must restore exactly that prefix or fail with an error. A
// second pass re-seals every record CRC after the damage, so the change
// reaches the record shape rules behind the CRCs; there ReadLog,
// restore and fsck must still only ever return.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "core/signature.h"
#include "persist/crc32.h"
#include "persist/format.h"
#include "persist/fsck.h"
#include "persist/log.h"
#include "persist/store.h"
#include "service/catalog.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::persist {
namespace {

constexpr uint32_t kCopies = 2000;
constexpr uint32_t kResealedCopies = 1000;

std::string FreshDir() {
  std::string tmpl = ::testing::TempDir() + "csj_logcorrupt_XXXXXX";
  const char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

service::CommunityCatalog::Options CatalogOpts(EncodingCache* cache) {
  service::CommunityCatalog::Options options;
  options.cache = cache;
  options.warm_eps = 2;
  options.signatures = SignatureOptions{};
  return options;
}

/// One logged mutation, as written.
struct Written {
  bool remove = false;
  uint64_t id = 0;
  uint64_t version = 0;
  Community community{1};
};

/// A seeded history of upserts (fresh ids and replacements) and removes
/// of live ids, with catalog-style ascending versions.
std::vector<Written> History() {
  util::Rng rng(testing::TestSeed(0x106));
  std::vector<Written> history;
  std::vector<uint64_t> live;
  uint64_t version = 0;
  for (uint32_t i = 0; i < 24; ++i) {
    Written op;
    if (!live.empty() && rng.Below(4) == 0) {
      const size_t pick = rng.Below(live.size());
      op.remove = true;
      op.id = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      op.id = live.empty() || rng.Below(3) != 0 ? 1 + rng.Below(12)
                                                : live[rng.Below(live.size())];
      op.version = ++version;
      const Dim d = 3 + static_cast<Dim>(rng.Below(3));
      const uint32_t users = 1 + static_cast<uint32_t>(rng.Below(5));
      std::vector<Count> flat(static_cast<size_t>(users) * d);
      for (Count& c : flat) c = static_cast<Count>(rng.Below(40));
      std::string name = "c";
      name += std::to_string(i);
      op.community = Community(d, std::move(flat), std::move(name));
      if (std::find(live.begin(), live.end(), op.id) == live.end()) {
        live.push_back(op.id);
      }
    }
    history.push_back(std::move(op));
  }
  return history;
}

bool SameCommunity(const Community& x, const Community& y) {
  if (x.d() != y.d() || x.size() != y.size() || x.name() != y.name()) {
    return false;
  }
  for (UserId u = 0; u < x.size(); ++u) {
    const auto row_x = x.User(u);
    const auto row_y = y.User(u);
    if (!std::equal(row_x.begin(), row_x.end(), row_y.begin())) return false;
  }
  return true;
}

/// Whether `image`'s records are the first records of `history`,
/// counters included.
bool IsWrittenPrefix(const LogImage& image,
                     const std::vector<Written>& history) {
  if (image.records.size() > history.size()) return false;
  for (size_t i = 0; i < image.records.size(); ++i) {
    const LogRecord& got = image.records[i];
    const Written& want = history[i];
    if (got.remove != want.remove || got.id != want.id) return false;
    if (got.remove) continue;
    if (got.version != want.version || got.d != want.community.d() ||
        got.users != want.community.size() ||
        got.name != want.community.name()) {
      return false;
    }
    std::vector<Count> flat(static_cast<size_t>(got.users) * got.d);
    std::memcpy(flat.data(), image.bytes.data() + got.counts_offset,
                flat.size() * sizeof(Count));
    if (!SameCommunity(Community(got.d, std::move(flat), got.name),
                       want.community)) {
      return false;
    }
  }
  return true;
}

/// Whether `catalog` holds exactly the state the first `count` records
/// of `history` leave behind.
bool HoldsPrefixState(const service::CommunityCatalog& catalog,
                      const std::vector<Written>& history, size_t count) {
  std::map<uint64_t, const Written*> expected;
  for (size_t i = 0; i < count; ++i) {
    if (history[i].remove) {
      expected.erase(history[i].id);
    } else {
      expected[history[i].id] = &history[i];
    }
  }
  const std::vector<service::CatalogEntry> snapshot = catalog.Snapshot();
  if (snapshot.size() != expected.size()) return false;
  auto want = expected.begin();
  for (const service::CatalogEntry& entry : snapshot) {
    if (entry.id != want->first || entry.version != want->second->version ||
        !SameCommunity(*entry.community, want->second->community)) {
      return false;
    }
    ++want;
  }
  return true;
}

/// Applies one seeded mutation: 1-4 byte flips, a truncation, or a
/// splice (a run of the file copied over another stretch of it).
enum class Damage { kFlip, kTruncate, kSplice };

std::vector<uint8_t> Mutate(const std::vector<uint8_t>& pristine,
                            util::Rng& rng, Damage* damage) {
  std::vector<uint8_t> bytes = pristine;
  switch (rng.Below(3)) {
    case 0: {
      *damage = Damage::kFlip;
      const uint64_t flips = 1 + rng.Below(4);
      for (uint64_t f = 0; f < flips; ++f) {
        bytes[rng.Below(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.Below(255));
      }
      break;
    }
    case 1:
      *damage = Damage::kTruncate;
      bytes.resize(rng.Below(bytes.size()));
      break;
    default: {
      *damage = Damage::kSplice;
      const uint64_t length = 1 + rng.Below(64);
      const uint64_t from = rng.Below(bytes.size() - length);
      const uint64_t to = rng.Below(bytes.size() - length);
      std::memmove(bytes.data() + to, pristine.data() + from, length);
      break;
    }
  }
  return bytes;
}

/// Recomputes the header CRC and the CRC of every record the (possibly
/// damaged) framing still walks to.
void Reseal(std::vector<uint8_t>& bytes) {
  if (bytes.size() < sizeof(LogHeader)) return;
  LogHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.crc = Crc32c(&header, offsetof(LogHeader, crc));
  std::memcpy(bytes.data(), &header, sizeof(header));
  size_t cursor = sizeof(LogHeader);
  while (bytes.size() - cursor >= sizeof(LogRecordPrefix)) {
    LogRecordPrefix prefix;
    std::memcpy(&prefix, bytes.data() + cursor, sizeof(prefix));
    if (bytes.size() - cursor - sizeof(prefix) < prefix.payload_size) break;
    prefix.payload_crc =
        Crc32c(bytes.data() + cursor + sizeof(prefix), prefix.payload_size);
    std::memcpy(bytes.data() + cursor, &prefix, sizeof(prefix));
    cursor += sizeof(prefix) + prefix.payload_size;
  }
}

/// Opens the store and restores it into a fresh catalog. Returns whether
/// the restore succeeded and leaves the catalog behind in `*out`.
bool OpenAndRestore(const std::string& dir, EncodingCache* cache,
                    std::unique_ptr<service::CommunityCatalog>* out) {
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  if (store == nullptr) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  *out = std::make_unique<service::CommunityCatalog>(CatalogOpts(cache));
  if (!store->RestoreInto(out->get(), &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  return true;
}

/// A generation-0 store whose log holds `history`; returns the log path.
std::string BuildStoreWithLog(const std::string& dir,
                              const std::vector<Written>& history) {
  StoreOptions options;
  options.dir = dir;
  std::string error;
  EXPECT_NE(Store::Open(options, &error), nullptr) << error;
  const std::string path = dir + "/log-0.csj";
  LogWriter writer;
  EXPECT_TRUE(writer.Open(path, 0, 1, 0, nullptr, &error)) << error;
  for (const Written& op : history) {
    EXPECT_TRUE(op.remove ? writer.AppendRemove(op.id)
                          : writer.AppendUpsert(op.id, op.version,
                                                op.community));
  }
  writer.Close();
  return path;
}

TEST(LogCorruptionTest, SeededDamageYieldsAPrefixOrAnError) {
  const std::vector<Written> history = History();
  const std::string dir = FreshDir();
  const std::string path = BuildStoreWithLog(dir, history);
  const std::vector<uint8_t> pristine = ReadFile(path);
  {
    LogImage image;
    std::string error;
    ASSERT_TRUE(ReadLog(path, 0, &image, &error)) << error;
    ASSERT_EQ(image.records.size(), history.size());
    ASSERT_TRUE(IsWrittenPrefix(image, history));
    EncodingCache cache;
    std::unique_ptr<service::CommunityCatalog> catalog;
    ASSERT_TRUE(OpenAndRestore(dir, &cache, &catalog));
    ASSERT_TRUE(HoldsPrefixState(*catalog, history, history.size()));
  }

  util::Rng rng(testing::TestSeed(0x10C0));
  uint32_t shortened = 0;
  uint32_t refused = 0;
  for (uint32_t copy = 0; copy < kCopies; ++copy) {
    SCOPED_TRACE("copy " + std::to_string(copy));
    Damage damage;
    WriteFile(path, Mutate(pristine, rng, &damage));
    LogImage image;
    std::string error;
    const bool read = ReadLog(path, 0, &image, &error);
    if (!read) {
      EXPECT_FALSE(error.empty());
      ++refused;
    }
    if (damage != Damage::kSplice) {
      EXPECT_TRUE(IsWrittenPrefix(image, history));
    }
    if (read && image.records.size() < history.size()) ++shortened;

    EncodingCache cache;
    std::unique_ptr<service::CommunityCatalog> catalog;
    const bool restored = OpenAndRestore(dir, &cache, &catalog);
    EXPECT_EQ(restored, read);
    if (restored && damage != Damage::kSplice) {
      EXPECT_TRUE(HoldsPrefixState(*catalog, history, image.records.size()));
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(shortened, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(LogCorruptionTest, ResealedDamageOnlyEverReturns) {
  const std::vector<Written> history = History();
  const std::string dir = FreshDir();
  const std::string path = BuildStoreWithLog(dir, history);
  const std::vector<uint8_t> pristine = ReadFile(path);

  util::Rng rng(testing::TestSeed(0x10C1));
  uint32_t shape_errors = 0;
  for (uint32_t copy = 0; copy < kResealedCopies; ++copy) {
    SCOPED_TRACE("copy " + std::to_string(copy));
    Damage damage;
    std::vector<uint8_t> bytes = Mutate(pristine, rng, &damage);
    Reseal(bytes);
    WriteFile(path, bytes);
    LogImage image;
    std::string error;
    if (!ReadLog(path, 0, &image, &error)) {
      EXPECT_FALSE(error.empty());
      ++shape_errors;
    }
    EncodingCache cache;
    std::unique_ptr<service::CommunityCatalog> catalog;
    OpenAndRestore(dir, &cache, &catalog);
    FsckOptions fsck;
    fsck.dir = dir;
    fsck.deep = false;
    FsckReport report;
    EXPECT_TRUE(FsckStore(fsck, &report));
    if (::testing::Test::HasFailure()) return;
  }
  // Re-sealed damage must reach the shape rules, not just the CRCs.
  EXPECT_GT(shape_errors, 0u);
}

/// Re-sealed damage that turned a logged version into 0 or into the
/// largest uint64: a CRC-valid record no writer produces. Restore used to
/// hand it to the catalog, whose version checks abort; ReadLog now
/// refuses it as a shape error. Under the default master seed, copies 388
/// and 992 of ResealedDamageOnlyEverReturns reach this case.
TEST(LogCorruptionTest, ImpossibleVersionsAreShapeErrors) {
  for (const uint64_t version : {uint64_t{0}, UINT64_MAX}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::vector<Written> history(1);
    history[0].id = 7;
    history[0].version = version;
    history[0].community = Community(3, std::vector<Count>{1, 2, 3}, "v");
    const std::string dir = FreshDir();
    const std::string path = BuildStoreWithLog(dir, history);
    LogImage image;
    std::string error;
    EXPECT_FALSE(ReadLog(path, 0, &image, &error));
    EXPECT_FALSE(error.empty());
    EncodingCache cache;
    std::unique_ptr<service::CommunityCatalog> catalog;
    EXPECT_FALSE(OpenAndRestore(dir, &cache, &catalog));
  }
}

}  // namespace
}  // namespace csj::persist
