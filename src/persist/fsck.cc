#include "persist/fsck.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>

#include "core/community.h"
#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/signature.h"
#include "persist/crc32.h"
#include "persist/format.h"
#include "persist/log.h"
#include "persist/segment.h"
#include "persist/segment_columns.h"
#include "persist/store.h"
#include "util/thread_pool.h"

namespace csj::persist {
namespace {

struct Reporter {
  FsckReport* report;
  std::mutex mu;

  void Fatal(std::string message) {
    std::lock_guard lock(mu);
    report->findings.push_back({true, std::move(message)});
  }
  void Note(std::string message) {
    std::lock_guard lock(mu);
    report->findings.push_back({false, std::move(message)});
  }
};

bool SameEncodedB(const EncodedB& x, const EncodedB& y) {
  if (x.size() != y.size() || x.parts() != y.parts()) return false;
  for (uint32_t u = 0; u < x.size(); ++u) {
    if (x.encoded_id(u) != y.encoded_id(u) || x.real_id(u) != y.real_id(u)) {
      return false;
    }
  }
  // part_sums(0) is the first element of the flat SoA buffer.
  return std::memcmp(x.part_sums(0).data(), y.part_sums(0).data(),
                     static_cast<size_t>(x.size()) * x.parts() *
                         sizeof(uint64_t)) == 0;
}

bool SameEncodedA(const EncodedA& x, const EncodedA& y, Dim d) {
  if (x.size() != y.size() || x.parts() != y.parts()) return false;
  for (uint32_t u = 0; u < x.size(); ++u) {
    if (x.encoded_min(u) != y.encoded_min(u) ||
        x.encoded_max(u) != y.encoded_max(u) ||
        x.real_id(u) != y.real_id(u)) {
      return false;
    }
  }
  // part_lo(0) heads the part-major lo/hi columns, BlockData(0) the
  // packed verify window.
  return std::memcmp(x.part_lo(0), y.part_lo(0),
                     2 * static_cast<size_t>(x.size()) * x.parts() *
                         sizeof(uint64_t)) == 0 &&
         std::memcmp(x.window().BlockData(0), y.window().BlockData(0),
                     VerifyWindow::PaddedCount(x.size(), d) *
                         sizeof(Count)) == 0;
}

/// Deep-verifies one entry: every derived artifact recomputed from the
/// stored counters and compared against the entry's stored views.
void DeepVerifyEntry(const SegmentColumns& columns,
                     const SegmentHeader& header, size_t i,
                     Reporter* reporter) {
  const service::CommunityCatalog::RestoredEntry stored =
      columns.View(i, /*with_encodings=*/true);
  const Community& community = *stored.community;
  const std::string tag = "entry id " + std::to_string(stored.id);

  const CommunityDigest digest = DigestCommunity(community);
  if (digest.fingerprint != stored.digest.fingerprint ||
      digest.max_counter != stored.digest.max_counter) {
    reporter->Fatal(tag + ": stored digest disagrees with recomputation");
  }

  if (stored.signature != nullptr) {
    SignatureOptions sig_options;
    sig_options.quantiles = header.sig_quantiles;
    const CommunitySignature rebuilt(community, sig_options);
    const auto expected = rebuilt.table();
    const auto table = stored.signature->table();
    if (!std::equal(expected.begin(), expected.end(), table.begin(),
                    table.end())) {
      reporter->Fatal(tag + ": stored sketch disagrees with recomputation");
    }
  }

  if (stored.encoded_b != nullptr) {
    const Encoder encoder(community.d(), header.warm_eps, header.warm_parts);
    if (!SameEncodedB(EncodedB(community, encoder), *stored.encoded_b)) {
      reporter->Fatal(tag +
                      ": stored EncodedB disagrees with recomputation");
    }
    if (!SameEncodedA(EncodedA(community, encoder), *stored.encoded_a,
                      community.d())) {
      reporter->Fatal(tag +
                      ": stored EncodedA disagrees with recomputation");
    }
  }
}

/// Structural + semantic segment verification: payload CRCs (the check
/// the zero-copy open path skips), the codec's shape rules, version
/// uniqueness, and with `deep` the per-entry recompute, which only runs
/// when everything before it is sound.
void VerifySegment(const std::shared_ptr<const MappedSegment>& segment,
                   bool deep, Reporter* reporter) {
  for (const SectionDesc& desc : segment->sections()) {
    if (Crc32c(segment->data() + desc.offset, desc.byte_size) != desc.crc) {
      reporter->Fatal(std::string("section ") + SectionName(desc.kind) +
                      ": payload CRC mismatch");
      return;
    }
  }
  SegmentColumns columns;
  std::string error;
  if (!columns.Bind(segment, &error)) {
    reporter->Fatal(error);
    return;
  }
  std::set<uint64_t> seen_versions;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!seen_versions.insert(columns.version(i)).second) {
      reporter->Fatal("entry id " + std::to_string(columns.id(i)) +
                      ": duplicate version");
      return;
    }
  }
  if (deep) {
    util::ThreadPool::Global().Run(
        static_cast<uint32_t>(columns.size()), [&](uint32_t i) {
          DeepVerifyEntry(columns, segment->header(), i, reporter);
        });
  }
}

}  // namespace

bool FsckStore(const FsckOptions& options, FsckReport* report) {
  *report = FsckReport{};
  Reporter reporter{report, {}};

  // Superblock.
  Superblock superblock;
  {
    const std::string path = options.dir + "/superblock.csj";
    bool present = false;
    std::string error;
    if (!ReadSuperblock(path, &superblock, &present, &error)) {
      reporter.Fatal(error);
      return true;
    }
    if (!present) {
      reporter.Fatal("superblock missing: " + path);
      return true;
    }
  }
  report->generation = superblock.generation;

  // Stray files from interrupted checkpoints (inert: nothing references
  // them until a superblock commit names them).
  {
    DIR* dir = ::opendir(options.dir.c_str());
    if (dir != nullptr) {
      const std::string seg = "seg-" + std::to_string(report->generation) +
                              ".csj";
      const std::string log = "log-" + std::to_string(report->generation) +
                              ".csj";
      while (dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == ".." || name == "superblock.csj" ||
            name == seg || name == log) {
          continue;
        }
        reporter.Note("stray file (interrupted checkpoint residue): " + name);
      }
      ::closedir(dir);
    }
  }

  // Segment.
  std::shared_ptr<MappedSegment> segment;
  if (report->generation >= 1) {
    std::string error;
    segment = MappedSegment::Map(
        options.dir + "/seg-" + std::to_string(report->generation) + ".csj",
        /*willneed=*/true, /*hugepages=*/false, &error);
    if (segment == nullptr) {
      reporter.Fatal(error);
    } else {
      report->segment_entries = segment->header().entry_count;
      VerifySegment(segment, options.deep, &reporter);
    }
  }

  // Log.
  {
    const std::string path =
        options.dir + "/log-" + std::to_string(report->generation) + ".csj";
    LogImage image;
    std::string error;
    if (!ReadLog(path, report->generation, &image, &error)) {
      reporter.Fatal(error);
    } else if (image.present) {
      report->log_records = image.records.size();
      const uint64_t horizon =
          segment != nullptr ? segment->header().next_version : 1;
      std::set<uint64_t> seen_versions;
      for (const LogRecord& record : image.records) {
        if (record.remove) continue;
        if (record.version < horizon) {
          reporter.Fatal("log upsert id " + std::to_string(record.id) +
                         ": version below the sealed generation's horizon");
        }
        if (!seen_versions.insert(record.version).second) {
          reporter.Fatal("log upsert id " + std::to_string(record.id) +
                         ": duplicate version");
        }
      }
      if (image.torn) {
        report->torn_tail_bytes = image.bytes.size() - image.truncated_at;
        reporter.Note("torn log tail: " +
                      std::to_string(report->torn_tail_bytes) +
                      " bytes past the last valid record");
        if (options.repair) {
          if (::truncate(path.c_str(),
                         static_cast<off_t>(image.truncated_at)) == 0) {
            report->repaired = true;
          } else {
            reporter.Fatal("repair: truncating the torn tail failed");
          }
        }
      }
    }
  }
  return true;
}

}  // namespace csj::persist
