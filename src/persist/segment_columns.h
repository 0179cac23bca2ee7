#ifndef CSJ_PERSIST_SEGMENT_COLUMNS_H_
#define CSJ_PERSIST_SEGMENT_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "persist/segment.h"
#include "service/catalog.h"

namespace csj::persist {

/// The segment codec: the one owner of the catalog's column layout. Its
/// section table (segment_columns.cc) maps every kind to its name,
/// element size, presence and length rule; SegmentImage writes the
/// layout, SegmentColumns binds, shape-checks and views it, and
/// csj_fsck names sections through SectionName. Store::Checkpoint,
/// Store::RestoreInto and csj_fsck only drive the codec.

/// The table's name for section `kind`, or "unknown".
const char* SectionName(uint32_t kind);

/// A catalog snapshot laid out as segment columns, filled in parallel
/// (encodings come from the catalog's cache, built on a miss through the
/// exact builders, so a cold cache still seals correct bytes).
class SegmentImage {
 public:
  /// `snapshot` must be `catalog.Snapshot()` (ascending id).
  SegmentImage(const service::CommunityCatalog& catalog,
               std::span<const service::CatalogEntry> snapshot);

  /// Seals the image into a segment file (see WriteSegment).
  bool Write(const std::string& path, std::string* error) const;

 private:
  /// One owned column; the vector matching its element size is used.
  struct Buffer {
    std::vector<uint64_t> u64;
    std::vector<uint32_t> u32;
    std::vector<uint8_t> u8;
  };
  template <typename T>
  std::span<T> Allocate(SectionKind kind, uint64_t count);

  SegmentHeader params_;  // the fields WriteSegment takes from the caller
  std::vector<Buffer> buffers_;  // one per section-table row
};

/// A mapped segment's columns, bound and shape-checked. Bind proves every
/// index View derives inside its column: the prefix columns live in
/// payload bytes the open path does not CRC (see MappedSegment), so this
/// O(n) pass is what keeps a corrupt value from reading outside the
/// mapping or aborting inside a view constructor, and its O(users) pass
/// over the stored real ids keeps a join from indexing past a community.
class SegmentColumns {
 public:
  /// Binds `segment`'s columns and checks every shape rule: sections
  /// present with their table element sizes and lengths, ids ascending,
  /// versions in [1, next_version), prefixes monotone with per-entry
  /// steps matching the entry's shape, a retired sampled-count section,
  /// if present, equal to the user counts, and every stored EncodedB/
  /// EncodedA real id below its entry's user count. Returns false with
  /// `*error` naming the first violated rule. Payload CRCs and duplicate
  /// versions are csj_fsck's checks.
  bool Bind(std::shared_ptr<const MappedSegment> segment,
            std::string* error);

  size_t size() const { return n_; }
  uint64_t id(size_t i) const { return ids_[i]; }
  uint64_t version(size_t i) const { return versions_[i]; }

  /// Entry `i` as views over the mapping, which every view keeps alive:
  /// the community and digest always, the sketch when the segment has
  /// signatures, and EncodedB/EncodedA when it has encodings and
  /// `with_encodings` is set.
  service::CommunityCatalog::RestoredEntry View(size_t i,
                                                bool with_encodings) const;

 private:
  std::shared_ptr<const MappedSegment> segment_;
  size_t n_ = 0;
  bool has_signatures_ = false;
  bool has_encodings_ = false;
  std::span<const uint64_t> ids_, versions_, fingerprints_, name_prefix_,
      users_prefix_, counts_prefix_, sig_prefix_, sums_prefix_, b_ids_,
      b_sums_, a_mins_, a_maxs_, a_cols_, window_prefix_;
  std::span<const uint32_t> dims_, max_counters_;
  std::span<const uint8_t> names_;
  std::span<const UserId> b_real_, a_real_;
  std::span<const Count> counts_, sig_tables_, a_window_;
};

}  // namespace csj::persist

#endif  // CSJ_PERSIST_SEGMENT_COLUMNS_H_
