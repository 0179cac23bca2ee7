#include "persist/segment_columns.h"

#include <array>
#include <cstddef>
#include <cstring>
#include <limits>
#include <utility>

#include "core/community.h"
#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/signature.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace csj::persist {
namespace {

/// How a section's element count follows from the segment. n is the
/// header's entry count; every other total is the last value of the
/// named prefix column.
enum class LengthRule : uint8_t {
  kEntries,    ///< n
  kPrefix,     ///< n + 1
  kNameBytes,  ///< name prefix total
  kUsers,      ///< user prefix total (U)
  kCounters,   ///< counter prefix total (sum of users * d)
  kSketch,     ///< sketch prefix total (sum of d * (quantiles + 1))
  kSums,       ///< part-sum prefix total (S = sum of users * parts)
  kTwiceSums,  ///< 2 * S (lo and hi per part)
  kWindow,     ///< window prefix total (sum of padded window counts)
  kUnchecked,  ///< a retired kind readers skip without looking
};

/// A section's presence: the header flag it is written under (kAlways:
/// every segment), or kRetired for a kind only older segments carry.
constexpr uint32_t kAlways = 0;
constexpr uint32_t kSig = kSegHasSignatures;
constexpr uint32_t kEnc = kSegHasEncodings;
constexpr uint32_t kRetired = 1u << 31;

struct SectionInfo {
  SectionKind kind;
  const char* name;
  uint32_t elem_size;
  uint32_t presence;
  LengthRule length;
};

// Retired kinds (see format.h): never written, never reused.
constexpr auto kRetiredSampled = static_cast<SectionKind>(11);

using L = LengthRule;

/// THE section table: kind -> name, element size, presence and length
/// rule. The order is the writer's emission order.
constexpr SectionInfo kSections[] = {
    {SectionKind::kIds, "ids", 8, kAlways, L::kEntries},
    {SectionKind::kVersions, "versions", 8, kAlways, L::kEntries},
    {SectionKind::kDims, "dims", 4, kAlways, L::kEntries},
    {SectionKind::kFingerprints, "fingerprints", 8, kAlways, L::kEntries},
    {SectionKind::kMaxCounters, "max_counters", 4, kAlways, L::kEntries},
    {SectionKind::kNamePrefix, "name_prefix", 8, kAlways, L::kPrefix},
    {SectionKind::kNames, "names", 1, kAlways, L::kNameBytes},
    {SectionKind::kUsersPrefix, "users_prefix", 8, kAlways, L::kPrefix},
    {SectionKind::kCountsPrefix, "counts_prefix", 8, kAlways, L::kPrefix},
    {SectionKind::kCounts, "counts", 4, kAlways, L::kCounters},
    {SectionKind::kSigPrefix, "sig_prefix", 8, kSig, L::kPrefix},
    {SectionKind::kSigTables, "sig_tables", 4, kSig, L::kSketch},
    {SectionKind::kSumsPrefix, "sums_prefix", 8, kEnc, L::kPrefix},
    {SectionKind::kEncBIds, "enc_b_ids", 8, kEnc, L::kUsers},
    {SectionKind::kEncBReal, "enc_b_real", 4, kEnc, L::kUsers},
    {SectionKind::kEncBSums, "enc_b_sums", 8, kEnc, L::kSums},
    {SectionKind::kEncAMins, "enc_a_mins", 8, kEnc, L::kUsers},
    {SectionKind::kEncAMaxs, "enc_a_maxs", 8, kEnc, L::kUsers},
    {SectionKind::kEncAReal, "enc_a_real", 4, kEnc, L::kUsers},
    {SectionKind::kEncACols, "enc_a_cols", 8, kEnc, L::kTwiceSums},
    {SectionKind::kWindowPrefix, "window_prefix", 8, kEnc,
     L::kPrefix},
    {SectionKind::kEncAWindow, "enc_a_window", 4, kEnc, L::kWindow},
    // Retired: a stored sampled count must equal the entry's user count
    // (anything else would lower the prescreen cap), then it is skipped.
    {kRetiredSampled, "sampled", 4, kRetired, L::kEntries},
    {static_cast<SectionKind>(24), "com_window", 4, kRetired,
     L::kUnchecked},
};

const SectionInfo* FindSectionInfo(SectionKind kind) {
  for (const SectionInfo& info : kSections) {
    if (info.kind == kind) return &info;
  }
  return nullptr;
}

/// Whether a segment with header `flags` carries section `info`.
bool Written(const SectionInfo& info, uint32_t flags) {
  return info.presence != kRetired && (flags & info.presence) == info.presence;
}

/// The steps one entry adds to the derived prefix columns. The writer
/// sums them and the shape check compares against them, so the two
/// cannot disagree about an entry's extent.
struct EntrySteps {
  uint64_t counters, sketch, sums, window;
};

EntrySteps StepsOf(Dim d, uint32_t users, uint32_t warm_parts,
                   uint32_t sig_quantiles) {
  return {uint64_t{users} * d, uint64_t{d} * (sig_quantiles + 1),
          uint64_t{users} * Encoder::ClampParts(warm_parts, d),
          VerifyWindow::PaddedCount(users, d)};
}

/// Last value of a prefix column, 0 for an unwritten one.
uint64_t Total(std::span<const uint64_t> prefix) {
  return prefix.empty() ? 0 : prefix.back();
}

/// Every length rule's element count, indexed by LengthRule.
using Lengths = std::array<uint64_t, static_cast<size_t>(L::kUnchecked) + 1>;
Lengths LengthsOf(uint64_t n, std::span<const uint64_t> name_prefix,
                  std::span<const uint64_t> users_prefix,
                  std::span<const uint64_t> counts_prefix,
                  std::span<const uint64_t> sig_prefix,
                  std::span<const uint64_t> sums_prefix,
                  std::span<const uint64_t> window_prefix) {
  return {n, n + 1, Total(name_prefix), Total(users_prefix),
          Total(counts_prefix), Total(sig_prefix), Total(sums_prefix),
          2 * Total(sums_prefix), Total(window_prefix), 0};
}

uint64_t LengthOf(const Lengths& lengths, LengthRule rule) {
  return lengths[static_cast<size_t>(rule)];
}

/// memcpy whose pointers may be null when the copy is empty (an empty
/// name's data() is null, which memcpy's nonnull attribute forbids even
/// for size 0).
void CopyBytes(void* dst, const void* src, size_t size) {
  if (size != 0) std::memcpy(dst, src, size);
}

}  // namespace

const char* SectionName(uint32_t kind) {
  const SectionInfo* info = FindSectionInfo(static_cast<SectionKind>(kind));
  return info == nullptr ? "unknown" : info->name;
}

// ---------------------------------------------------------------- writer

template <typename T>
std::span<T> SegmentImage::Allocate(SectionKind kind, uint64_t count) {
  const SectionInfo* info = FindSectionInfo(kind);
  CSJ_CHECK_EQ(info->elem_size, sizeof(T));
  Buffer& buffer = buffers_[static_cast<size_t>(info - kSections)];
  std::vector<T>* column = nullptr;
  if constexpr (sizeof(T) == 8) {
    column = &buffer.u64;
  } else if constexpr (sizeof(T) == 4) {
    column = &buffer.u32;
  } else {
    column = &buffer.u8;
  }
  column->resize(count);
  return *column;
}

SegmentImage::SegmentImage(const service::CommunityCatalog& catalog,
                           std::span<const service::CatalogEntry> snapshot)
    : buffers_(std::size(kSections)) {
  const auto& options = catalog.options();
  const auto n = static_cast<uint32_t>(snapshot.size());
  const bool has_signatures = catalog.signature_index() != nullptr;
  const bool has_encodings = options.cache != nullptr;
  params_.entry_count = n;
  params_.next_version = catalog.latest_version() + 1;
  params_.warm_eps = options.warm_eps;
  params_.warm_parts = options.warm_parts;
  params_.sig_quantiles =
      has_signatures ? catalog.signature_options()->quantiles : 0;
  params_.flags = (has_signatures ? kSegHasSignatures : 0u) |
                  (has_encodings ? kSegHasEncodings : 0u);

  // Every column is sized by its table length rule: the prefix columns
  // by the entry count, then the rest by the prefix totals.
  Lengths lengths = LengthsOf(n, {}, {}, {}, {}, {}, {});
  auto column = [&]<typename T>(SectionKind kind, T) {
    const SectionInfo& info = *FindSectionInfo(kind);
    return Allocate<T>(kind, Written(info, params_.flags)
                                 ? LengthOf(lengths, info.length)
                                 : 0);
  };
  const auto name_prefix = column(SectionKind::kNamePrefix, uint64_t{});
  const auto users_prefix = column(SectionKind::kUsersPrefix, uint64_t{});
  const auto counts_prefix = column(SectionKind::kCountsPrefix, uint64_t{});
  const auto sig_prefix = column(SectionKind::kSigPrefix, uint64_t{});
  const auto sums_prefix = column(SectionKind::kSumsPrefix, uint64_t{});
  const auto window_prefix = column(SectionKind::kWindowPrefix, uint64_t{});
  for (uint32_t i = 0; i < n; ++i) {
    const service::CatalogEntry& entry = snapshot[i];
    const Community& community = *entry.community;
    const EntrySteps steps =
        StepsOf(community.d(), community.size(), params_.warm_parts,
                params_.sig_quantiles);
    name_prefix[i + 1] = name_prefix[i] + community.name().size();
    users_prefix[i + 1] = users_prefix[i] + community.size();
    counts_prefix[i + 1] = counts_prefix[i] + steps.counters;
    if (has_signatures) {
      CSJ_CHECK(entry.signature != nullptr);
      sig_prefix[i + 1] = sig_prefix[i] + steps.sketch;
    }
    if (has_encodings) {
      sums_prefix[i + 1] = sums_prefix[i] + steps.sums;
      window_prefix[i + 1] = window_prefix[i] + steps.window;
    }
  }

  lengths = LengthsOf(n, name_prefix, users_prefix, counts_prefix,
                      sig_prefix, sums_prefix, window_prefix);
  const auto ids = column(SectionKind::kIds, uint64_t{});
  const auto versions = column(SectionKind::kVersions, uint64_t{});
  const auto dims = column(SectionKind::kDims, Dim{});
  const auto fingerprints = column(SectionKind::kFingerprints, uint64_t{});
  const auto max_counters = column(SectionKind::kMaxCounters, Count{});
  const auto names = column(SectionKind::kNames, uint8_t{});
  const auto counts = column(SectionKind::kCounts, Count{});
  const auto sig_tables = column(SectionKind::kSigTables, Count{});
  const auto b_ids = column(SectionKind::kEncBIds, uint64_t{});
  const auto b_real = column(SectionKind::kEncBReal, UserId{});
  const auto b_sums = column(SectionKind::kEncBSums, uint64_t{});
  const auto a_mins = column(SectionKind::kEncAMins, uint64_t{});
  const auto a_maxs = column(SectionKind::kEncAMaxs, uint64_t{});
  const auto a_real = column(SectionKind::kEncAReal, UserId{});
  const auto a_cols = column(SectionKind::kEncACols, uint64_t{});
  const auto a_window = column(SectionKind::kEncAWindow, Count{});

  // Parallel fill: every entry writes disjoint column stretches.
  util::ThreadPool::Global().Run(n, [&](uint32_t i) {
    const service::CatalogEntry& entry = snapshot[i];
    const Community& community = *entry.community;
    ids[i] = entry.id;
    versions[i] = entry.version;
    fingerprints[i] = entry.digest.fingerprint;
    max_counters[i] = entry.digest.max_counter;
    dims[i] = community.d();
    CopyBytes(names.data() + name_prefix[i], community.name().data(),
              community.name().size());
    const auto flat = community.flat();
    CopyBytes(counts.data() + counts_prefix[i], flat.data(),
              flat.size() * sizeof(Count));
    if (has_signatures) {
      const auto table = entry.signature->table();
      CopyBytes(sig_tables.data() + sig_prefix[i], table.data(),
                table.size() * sizeof(Count));
    }
    if (has_encodings) {
      const uint32_t users = community.size();
      const uint32_t parts =
          Encoder::ClampParts(options.warm_parts, community.d());
      const auto encoded_b = options.cache->GetEncodedB(
          community, entry.digest, options.warm_eps, parts, nullptr);
      const auto encoded_a = options.cache->GetEncodedA(
          community, entry.digest, options.warm_eps, parts, nullptr);
      const uint64_t u0 = users_prefix[i];
      for (uint32_t u = 0; u < users; ++u) {
        b_ids[u0 + u] = encoded_b->encoded_id(u);
        b_real[u0 + u] = encoded_b->real_id(u);
        a_mins[u0 + u] = encoded_a->encoded_min(u);
        a_maxs[u0 + u] = encoded_a->encoded_max(u);
        a_real[u0 + u] = encoded_a->real_id(u);
      }
      // part_sums(0) / part_lo(0) are the first elements of the flat
      // SoA buffers; the whole column is contiguous behind them.
      const size_t sums = static_cast<size_t>(users) * parts;
      std::memcpy(b_sums.data() + sums_prefix[i],
                  encoded_b->part_sums(0).data(), sums * sizeof(uint64_t));
      std::memcpy(a_cols.data() + 2 * sums_prefix[i], encoded_a->part_lo(0),
                  2 * sums * sizeof(uint64_t));
      std::memcpy(a_window.data() + window_prefix[i],
                  encoded_a->window().BlockData(0),
                  (window_prefix[i + 1] - window_prefix[i]) * sizeof(Count));
    }
  });
}

bool SegmentImage::Write(const std::string& path, std::string* error) const {
  std::vector<SectionSpec> sections;
  for (size_t row = 0; row < std::size(kSections); ++row) {
    const SectionInfo& info = kSections[row];
    if (!Written(info, params_.flags)) continue;
    const Buffer& b = buffers_[row];
    const auto bytes =
        info.elem_size == 8   ? std::as_bytes(std::span(b.u64))
        : info.elem_size == 4 ? std::as_bytes(std::span(b.u32))
                              : std::as_bytes(std::span(b.u8));
    sections.push_back({info.kind, info.elem_size, bytes.data(), bytes.size()});
  }
  return WriteSegment(path, params_, sections, error);
}

// ---------------------------------------------------------------- reader

bool SegmentColumns::Bind(std::shared_ptr<const MappedSegment> segment,
                          std::string* error) {
  segment_ = std::move(segment);
  const SegmentHeader& header = segment_->header();
  n_ = static_cast<size_t>(header.entry_count);
  has_signatures_ = (header.flags & kSegHasSignatures) != 0;
  has_encodings_ = (header.flags & kSegHasEncodings) != 0;
  auto fail = [&](std::string message) {
    *error = std::move(message);
    return false;
  };
  if (has_signatures_ &&
      CommunitySignature::ClampQuantiles(header.sig_quantiles) !=
          header.sig_quantiles) {
    return fail("header: signature quantiles outside the builders' range");
  }

  // Presence, element sizes, and the lengths fixed by the entry count.
  // The length rules over prefix totals wait for the prefixes' check.
  const Lengths entries = LengthsOf(n_, {}, {}, {}, {}, {}, {});
  for (const SectionInfo& info : kSections) {
    const SectionDesc* desc = segment_->Find(info.kind);
    const bool written = Written(info, header.flags);
    if (desc == nullptr) {
      if (written) return fail(std::string("section ") + info.name +
                               ": missing");
      continue;
    }
    if ((!written && info.presence != kRetired) ||
        info.length == L::kUnchecked) {
      continue;
    }
    if (desc->elem_size != info.elem_size) {
      return fail(std::string("section ") + info.name +
                  ": element size disagrees with its kind");
    }
    if ((info.length == L::kEntries || info.length == L::kPrefix) &&
        desc->byte_size / desc->elem_size != LengthOf(entries, info.length)) {
      return fail(std::string("section ") + info.name +
                  ": length disagrees with the header entry count");
    }
  }

  const MappedSegment& seg = *segment_;
  ids_ = seg.Column<uint64_t>(SectionKind::kIds);
  versions_ = seg.Column<uint64_t>(SectionKind::kVersions);
  dims_ = seg.Column<Dim>(SectionKind::kDims);
  fingerprints_ = seg.Column<uint64_t>(SectionKind::kFingerprints);
  max_counters_ = seg.Column<Count>(SectionKind::kMaxCounters);
  name_prefix_ = seg.Column<uint64_t>(SectionKind::kNamePrefix);
  names_ = seg.Column<uint8_t>(SectionKind::kNames);
  users_prefix_ = seg.Column<uint64_t>(SectionKind::kUsersPrefix);
  counts_prefix_ = seg.Column<uint64_t>(SectionKind::kCountsPrefix);
  counts_ = seg.Column<Count>(SectionKind::kCounts);
  if (has_signatures_) {
    sig_prefix_ = seg.Column<uint64_t>(SectionKind::kSigPrefix);
    sig_tables_ = seg.Column<Count>(SectionKind::kSigTables);
  }
  if (has_encodings_) {
    sums_prefix_ = seg.Column<uint64_t>(SectionKind::kSumsPrefix);
    b_ids_ = seg.Column<uint64_t>(SectionKind::kEncBIds);
    b_real_ = seg.Column<UserId>(SectionKind::kEncBReal);
    b_sums_ = seg.Column<uint64_t>(SectionKind::kEncBSums);
    a_mins_ = seg.Column<uint64_t>(SectionKind::kEncAMins);
    a_maxs_ = seg.Column<uint64_t>(SectionKind::kEncAMaxs);
    a_real_ = seg.Column<UserId>(SectionKind::kEncAReal);
    a_cols_ = seg.Column<uint64_t>(SectionKind::kEncACols);
    window_prefix_ = seg.Column<uint64_t>(SectionKind::kWindowPrefix);
    a_window_ = seg.Column<Count>(SectionKind::kEncAWindow);
  }
  const auto sampled = seg.Column<uint32_t>(kRetiredSampled);

  // Per-entry rules: with every prefix monotone, each entry's stretch
  // lies between the prefix's first and last value, and the totals
  // check below pins the last value to the column length.
  const std::span<const uint64_t> prefixes[] = {
      name_prefix_, users_prefix_, counts_prefix_,
      sig_prefix_,  sums_prefix_,  window_prefix_};
  for (size_t i = 0; i < n_; ++i) {
    auto entry_fail = [&](const char* what) {
      return fail("entry id " + std::to_string(ids_[i]) + ": " + what);
    };
    if (i > 0 && ids_[i] <= ids_[i - 1]) {
      return fail("ids not strictly ascending at index " + std::to_string(i));
    }
    // Versions live in un-CRC'd payload bytes like the prefixes: a
    // corrupt value must fail here, not abort inside RestoreBatch.
    if (versions_[i] == 0 || versions_[i] >= header.next_version) {
      return entry_fail("version outside [1, next_version)");
    }
    for (const std::span<const uint64_t> prefix : prefixes) {
      if (!prefix.empty() && prefix[i + 1] < prefix[i]) {
        return entry_fail("prefix column not monotone");
      }
    }
    const Dim d = dims_[i];
    const uint64_t users = users_prefix_[i + 1] - users_prefix_[i];
    if (d == 0 || users == 0 ||
        users > std::numeric_limits<uint32_t>::max()) {
      return entry_fail("degenerate shape");
    }
    if (!sampled.empty() && sampled[i] != users) {
      return entry_fail("retired sampled count differs from the user count");
    }
    const EntrySteps steps = StepsOf(d, static_cast<uint32_t>(users),
                                     header.warm_parts, header.sig_quantiles);
    const std::pair<std::span<const uint64_t>, uint64_t> stepped[] = {
        {counts_prefix_, steps.counters},
        {sig_prefix_, steps.sketch},
        {sums_prefix_, steps.sums},
        {window_prefix_, steps.window}};
    for (const auto& [prefix, step] : stepped) {
      if (!prefix.empty() && prefix[i + 1] - prefix[i] != step) {
        return entry_fail("prefix step disagrees with the entry's shape");
      }
    }
  }

  // Column lengths against the prefix totals, in table order (the part
  // sums are pinned before the rule that doubles them).
  const Lengths lengths =
      LengthsOf(n_, name_prefix_, users_prefix_, counts_prefix_, sig_prefix_,
                sums_prefix_, window_prefix_);
  for (const SectionInfo& info : kSections) {
    if (!Written(info, header.flags) || info.length == L::kEntries ||
        info.length == L::kPrefix) {
      continue;
    }
    const SectionDesc* desc = segment_->Find(info.kind);
    if (desc->byte_size / desc->elem_size != LengthOf(lengths, info.length)) {
      return fail(std::string("section ") + info.name +
                  ": length disagrees with its prefix total");
    }
  }

  // Stored real ids index the community's users on every join (and CSF
  // by them), unchecked. Read only now that the column lengths are pinned
  // to the users prefix.
  for (size_t i = 0; has_encodings_ && i < n_; ++i) {
    const uint64_t users = users_prefix_[i + 1] - users_prefix_[i];
    for (uint64_t u = users_prefix_[i]; u < users_prefix_[i + 1]; ++u) {
      if (b_real_[u] >= users || a_real_[u] >= users) {
        return fail("entry id " + std::to_string(ids_[i]) +
                    ": encoded real id outside the entry's users");
      }
    }
  }
  return true;
}

service::CommunityCatalog::RestoredEntry SegmentColumns::View(
    size_t i, bool with_encodings) const {
  const SegmentHeader& header = segment_->header();
  service::CommunityCatalog::RestoredEntry entry;
  const Dim d = dims_[i];
  const auto users =
      static_cast<uint32_t>(users_prefix_[i + 1] - users_prefix_[i]);
  entry.id = ids_[i];
  entry.version = versions_[i];
  entry.digest = {fingerprints_[i], max_counters_[i]};
  std::string name(
      reinterpret_cast<const char*>(names_.data()) + name_prefix_[i],
      name_prefix_[i + 1] - name_prefix_[i]);
  entry.community = std::make_shared<const Community>(Community::FromView(
      d, counts_.data() + counts_prefix_[i], static_cast<size_t>(users) * d,
      segment_, std::move(name)));
  if (has_signatures_) {
    entry.signature = std::make_shared<const CommunitySignature>(
        CommunitySignature::TableView{users, header.sig_quantiles, d,
                                      sig_tables_.data() + sig_prefix_[i]},
        segment_);
  }
  if (has_encodings_ && with_encodings) {
    const uint32_t parts = Encoder::ClampParts(header.warm_parts, d);
    const uint64_t u0 = users_prefix_[i];
    entry.encoded_b = std::make_shared<const EncodedB>(
        EncodedB::Columns{parts, users, b_ids_.data() + u0,
                          b_real_.data() + u0,
                          b_sums_.data() + sums_prefix_[i]},
        segment_);
    entry.encoded_a = std::make_shared<const EncodedA>(
        EncodedA::Columns{parts, users, d, a_mins_.data() + u0,
                          a_maxs_.data() + u0, a_real_.data() + u0,
                          a_cols_.data() + 2 * sums_prefix_[i],
                          a_window_.data() + window_prefix_[i]},
        segment_);
  }
  return entry;
}

}  // namespace csj::persist
