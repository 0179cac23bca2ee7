// Seeded corruption of a sealed segment. A fixed budget of byte flips,
// truncations and splices is applied to copies of one small segment; for
// every copy the store must open and restore to a result (success or an
// error string, never an abort), and csj_fsck must report a fatal
// finding whenever the change reaches the header, the descriptor table
// or a section payload. A second pass re-seals every checksum after the
// change, so the damage reaches the shape rules behind the CRCs; there
// restore and fsck must still only ever return.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoding_cache.h"
#include "core/signature.h"
#include "data/generator.h"
#include "persist/crc32.h"
#include "persist/format.h"
#include "persist/fsck.h"
#include "persist/store.h"
#include "service/catalog.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::persist {
namespace {

constexpr uint32_t kCopies = 2000;

std::string FreshDir() {
  std::string tmpl = ::testing::TempDir() + "csj_corrupt_XXXXXX";
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

/// Seals 8 communities into `dir` (segment only, no log).
void BuildStore(const std::string& dir) {
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  data::VkLikeGenerator gen(data::Category::kSport);
  util::Rng rng(testing::TestSeed(0xC0));
  for (uint64_t id = 1; id <= 8; ++id) {
    catalog.Upsert(id, data::MakeCommunity(
                           gen, 6 + static_cast<uint32_t>(id % 5), rng));
  }
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
}

/// Marks the bytes a checksum guards: header, descriptor table and every
/// section payload. Alignment padding between payloads is unguarded.
std::vector<bool> GuardedBytes(const std::vector<uint8_t>& segment) {
  std::vector<bool> guarded(segment.size(), false);
  SegmentHeader header;
  std::memcpy(&header, segment.data(), sizeof(header));
  const size_t table_end =
      sizeof(header) + header.section_count * sizeof(SectionDesc);
  for (size_t b = 0; b < table_end; ++b) guarded[b] = true;
  for (uint32_t s = 0; s < header.section_count; ++s) {
    SectionDesc desc;
    std::memcpy(&desc, segment.data() + sizeof(header) + s * sizeof(desc),
                sizeof(desc));
    for (uint64_t b = 0; b < desc.byte_size; ++b) {
      guarded[desc.offset + b] = true;
    }
  }
  return guarded;
}

/// Applies one seeded mutation: 1-4 byte flips, a truncation, or a
/// splice (a run of the file copied over another stretch of it).
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& pristine,
                            util::Rng& rng) {
  std::vector<uint8_t> bytes = pristine;
  switch (rng.Below(3)) {
    case 0: {
      const uint64_t flips = 1 + rng.Below(4);
      for (uint64_t f = 0; f < flips; ++f) {
        bytes[rng.Below(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.Below(255));
      }
      break;
    }
    case 1:
      bytes.resize(rng.Below(bytes.size()));
      break;
    default: {
      const uint64_t length = 1 + rng.Below(64);
      const uint64_t from = rng.Below(bytes.size() - length);
      const uint64_t to = rng.Below(bytes.size() - length);
      std::memmove(bytes.data() + to, pristine.data() + from, length);
      break;
    }
  }
  return bytes;
}

/// Recomputes every checksum the (possibly damaged) layout still names:
/// section payload CRCs within bounds, the table CRC, the header CRC.
void Reseal(std::vector<uint8_t>& bytes) {
  if (bytes.size() < sizeof(SegmentHeader)) return;
  SegmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionDesc);
  if (table_bytes <= bytes.size() - sizeof(header)) {
    uint8_t* table = bytes.data() + sizeof(header);
    for (uint32_t s = 0; s < header.section_count; ++s) {
      SectionDesc desc;
      std::memcpy(&desc, table + s * sizeof(desc), sizeof(desc));
      if (desc.offset <= bytes.size() &&
          desc.byte_size <= bytes.size() - desc.offset) {
        desc.crc = Crc32c(bytes.data() + desc.offset, desc.byte_size);
        std::memcpy(table + s * sizeof(desc), &desc, sizeof(desc));
      }
    }
    header.table_crc = Crc32c(table, table_bytes);
  }
  header.crc = Crc32c(&header, offsetof(SegmentHeader, crc));
  std::memcpy(bytes.data(), &header, sizeof(header));
}

/// Opens and restores the store. Returns whether the restore succeeded;
/// reaching the return at all is the contract.
bool OpenAndRestore(const std::string& dir) {
  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  if (store == nullptr) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  EncodingCache cache;
  service::CommunityCatalog catalog(CatalogOpts(&cache));
  if (!store->RestoreInto(&catalog, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  return true;
}

FsckReport Fsck(const std::string& dir) {
  FsckOptions options;
  options.dir = dir;
  FsckReport report;
  EXPECT_TRUE(FsckStore(options, &report));
  return report;
}

TEST(SegmentCorruptionTest, SeededDamageNeverAbortsAndFsckCatchesIt) {
  const std::string dir = FreshDir();
  BuildStore(dir);
  const std::string seg = dir + "/seg-1.csj";
  const std::vector<uint8_t> pristine = ReadFile(seg);
  const std::vector<bool> guarded = GuardedBytes(pristine);
  ASSERT_TRUE(OpenAndRestore(dir));
  ASSERT_TRUE(Fsck(dir).clean());

  util::Rng rng(testing::TestSeed(0xF022));
  uint32_t caught = 0;
  uint32_t restored = 0;
  for (uint32_t copy = 0; copy < kCopies; ++copy) {
    const std::vector<uint8_t> bytes = Mutate(pristine, rng);
    bool touches_guarded = bytes.size() != pristine.size();
    for (size_t b = 0; b < bytes.size() && !touches_guarded; ++b) {
      touches_guarded = guarded[b] && bytes[b] != pristine[b];
    }
    WriteFile(seg, bytes);
    SCOPED_TRACE("copy " + std::to_string(copy));
    if (OpenAndRestore(dir)) ++restored;
    const FsckReport report = Fsck(dir);
    if (touches_guarded) {
      EXPECT_FALSE(report.clean());
      ++caught;
    } else {
      EXPECT_TRUE(report.clean())
          << (report.findings.empty() ? "" : report.findings[0].message);
    }
  }
  // The budget must actually exercise both outcomes of restore.
  EXPECT_GT(caught, kCopies / 2);
  EXPECT_GT(restored, 0u);
  WriteFile(seg, pristine);
  EXPECT_TRUE(Fsck(dir).clean());
}

TEST(SegmentCorruptionTest, ResealedDamageNeverAbortsRestoreOrFsck) {
  const std::string dir = FreshDir();
  BuildStore(dir);
  const std::string seg = dir + "/seg-1.csj";
  const std::vector<uint8_t> pristine = ReadFile(seg);

  util::Rng rng(testing::TestSeed(0xF023));
  uint32_t refused = 0;
  for (uint32_t copy = 0; copy < kCopies; ++copy) {
    std::vector<uint8_t> bytes = Mutate(pristine, rng);
    Reseal(bytes);
    WriteFile(seg, bytes);
    SCOPED_TRACE("copy " + std::to_string(copy));
    if (!OpenAndRestore(dir)) ++refused;
    Fsck(dir);
  }
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace csj::persist
