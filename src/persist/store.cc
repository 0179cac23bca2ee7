#include "persist/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "persist/crc32.h"
#include "persist/segment_columns.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj::persist {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool FsyncDir(const std::string& dir, std::string* error) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    *error = Errno("open " + dir);
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok) *error = Errno("fsync " + dir);
  ::close(fd);
  return ok;
}

}  // namespace

bool ReadSuperblock(const std::string& path, Superblock* superblock,
                    bool* present, std::string* error) {
  *present = false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return true;
    *error = Errno("open " + path);
    return false;
  }
  const ssize_t n = ::read(fd, superblock, sizeof(*superblock));
  ::close(fd);
  if (n != static_cast<ssize_t>(sizeof(*superblock))) {
    *error = path + ": short superblock";
    return false;
  }
  if (superblock->magic != kSuperblockMagic) {
    *error = path + ": bad superblock magic";
    return false;
  }
  if (superblock->format_version != kFormatVersion) {
    *error = path + ": unsupported superblock format version";
    return false;
  }
  if (Crc32c(superblock, offsetof(Superblock, crc)) != superblock->crc) {
    *error = path + ": superblock CRC mismatch";
    return false;
  }
  *present = true;
  return true;
}


std::string Store::SuperblockPath() const {
  return options_.dir + "/superblock.csj";
}

std::string Store::SegmentPath(uint64_t generation) const {
  return options_.dir + "/seg-" + std::to_string(generation) + ".csj";
}

std::string Store::LogPath(uint64_t generation) const {
  return options_.dir + "/log-" + std::to_string(generation) + ".csj";
}

bool Store::CommitSuperblock(uint64_t generation, std::string* error) {
  Superblock superblock;
  superblock.generation = generation;
  superblock.crc = Crc32c(&superblock, offsetof(Superblock, crc));
  const std::string tmp = options_.dir + "/superblock.tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    *error = Errno("open " + tmp);
    return false;
  }
  bool ok = ::write(fd, &superblock, sizeof(superblock)) ==
            static_cast<ssize_t>(sizeof(superblock));
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    *error = Errno("write " + tmp);
    return false;
  }
  // rename + directory fsync is the COMMIT POINT: before it the old
  // superblock (or none) is what any reopen sees; after it the new
  // generation is durable, atomically.
  if (::rename(tmp.c_str(), SuperblockPath().c_str()) != 0) {
    *error = Errno("rename " + tmp);
    return false;
  }
  return FsyncDir(options_.dir, error);
}

std::unique_ptr<Store> Store::Open(StoreOptions options, std::string* error,
                                   OpenStats* stats) {
  if (stats != nullptr) *stats = OpenStats{};
  auto store = std::unique_ptr<Store>(new Store(std::move(options)));
  if (::mkdir(store->options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    *error = Errno("mkdir " + store->options_.dir);
    return nullptr;
  }

  util::Timer timer;
  Superblock superblock;
  bool present = false;
  if (!ReadSuperblock(store->SuperblockPath(), &superblock, &present, error)) {
    return nullptr;
  }
  if (!present) {
    // Fresh store: commit generation 0 (no segment, no log) so every
    // later open — including one racing a crash during the FIRST
    // checkpoint — finds a committed superblock to trust.
    if (!store->CommitSuperblock(0, error)) return nullptr;
    superblock.generation = 0;
  }
  store->generation_ = superblock.generation;

  if (store->generation_ >= 1) {
    store->segment_ =
        MappedSegment::Map(store->SegmentPath(store->generation_),
                           /*willneed=*/true, /*hugepages=*/true, error);
    if (store->segment_ == nullptr) return nullptr;
  }
  if (stats != nullptr) {
    stats->opened_existing = present;
    stats->generation = store->generation_;
    stats->map_seconds = timer.Seconds();
    if (store->segment_ != nullptr) {
      stats->segment_entries = store->segment_->header().entry_count;
      stats->segment_bytes = store->segment_->size();
    }
  }

  if (!ReadLog(store->LogPath(store->generation_), store->generation_,
               &store->log_image_, error)) {
    return nullptr;
  }
  store->log_end_ = store->log_image_.truncated_at;
  if (stats != nullptr) {
    stats->log_torn_bytes =
        store->log_image_.bytes.size() - store->log_image_.truncated_at;
  }
  return store;
}

bool Store::RestoreInto(service::CommunityCatalog* catalog, std::string* error,
                        OpenStats* stats) {
  CSJ_CHECK(catalog != nullptr);
  CSJ_CHECK_EQ(catalog->size(), 0u)
      << "RestoreInto requires a freshly constructed catalog";
  const auto& catalog_options = catalog->options();

  uint64_t recovered_next = 1;
  util::Timer timer;
  std::vector<service::CommunityCatalog::RestoredEntry> pending;

  if (segment_ != nullptr) {
    const SegmentHeader& header = segment_->header();
    const bool has_signatures = (header.flags & kSegHasSignatures) != 0;
    const bool has_encodings = (header.flags & kSegHasEncodings) != 0;

    // The segment's derived artifacts are only adoptable into a catalog
    // shaped like the writer's; a mismatch is a configuration error,
    // not a recoverable state.
    if (has_encodings && catalog_options.cache != nullptr &&
        (header.warm_eps != catalog_options.warm_eps ||
         header.warm_parts != catalog_options.warm_parts)) {
      *error = "store warm parameters disagree with the catalog's";
      return false;
    }
    if (has_signatures != (catalog->signature_index() != nullptr)) {
      *error = "store signature configuration disagrees with the catalog's";
      return false;
    }
    if (has_signatures &&
        header.sig_quantiles != catalog->signature_options()->quantiles) {
      *error = "store signature quantiles disagree with the catalog's";
      return false;
    }

    // Bind + shape-check the columns, then build the restored entries:
    // everything large is a VIEW pinned by the mapping; per entry this
    // allocates only the control blocks.
    SegmentColumns columns;
    std::string shape_error;
    if (!columns.Bind(segment_, &shape_error)) {
      *error = "segment column shape invalid (" + shape_error +
               "); run csj_fsck";
      return false;
    }
    pending.resize(columns.size());
    const bool adopt_encodings = catalog_options.cache != nullptr;
    util::ThreadPool::Global().Run(
        static_cast<uint32_t>(columns.size()), [&](uint32_t i) {
          pending[i] = columns.View(i, adopt_encodings);
        });
    recovered_next = std::max<uint64_t>(recovered_next, header.next_version);
  }

  const double segment_seconds = timer.Seconds();
  timer.Reset();

  // Install the checkpoint image, then replay the log tail in append
  // order. Removes flush the pending batch first: batch installs and
  // removes must interleave exactly as the writer's history did, per
  // shard, for the index pack layout to replay byte-identically.
  auto flush = [&]() {
    if (pending.empty()) return;
    uint64_t next = 1;
    for (const auto& entry : pending) {
      next = std::max(next, entry.version + 1);
    }
    catalog->RestoreBatch(std::move(pending), next, nullptr);
    pending.clear();
  };

  uint64_t replayed = 0;
  // Segment image first.
  flush();
  const double restore_seconds = timer.Seconds();
  timer.Reset();

  for (const LogRecord& record : log_image_.records) {
    ++replayed;
    if (record.remove) {
      flush();
      catalog->Remove(record.id);
      continue;
    }
    service::CommunityCatalog::RestoredEntry entry;
    entry.id = record.id;
    entry.version = record.version;
    std::vector<Count> counts(static_cast<size_t>(record.users) * record.d);
    std::memcpy(counts.data(), log_image_.bytes.data() + record.counts_offset,
                counts.size() * sizeof(Count));
    entry.community = std::make_shared<const Community>(
        Community(record.d, std::move(counts), record.name));
    entry.digest = DigestCommunity(*entry.community);
    // Derived artifacts were never checkpointed for log-tail entries;
    // RestoreBatch rebuilds them with Upsert's exact builders.
    pending.push_back(std::move(entry));
    recovered_next = std::max(recovered_next, record.version + 1);
  }
  flush();
  // Pin the version counter to the recovered horizon even when the tail
  // ends in removes (an empty RestoreBatch only advances the counter).
  catalog->RestoreBatch({}, recovered_next, nullptr);

  if (stats != nullptr) {
    stats->restore_seconds = restore_seconds;
    stats->map_seconds += segment_seconds;
    stats->replay_seconds = timer.Seconds();
    stats->log_records_replayed = replayed;
    stats->generation = generation_;
    if (segment_ != nullptr) {
      stats->segment_entries = segment_->header().entry_count;
      stats->segment_bytes = segment_->size();
    }
  }
  return true;
}

bool Store::StartLogging(service::CommunityCatalog* catalog,
                         std::string* error) {
  CSJ_CHECK(catalog != nullptr);
  std::lock_guard lock(writer_mu_);
  CSJ_CHECK(writer_ == nullptr) << "logging already started";
  writer_ = std::make_unique<LogWriter>();
  if (!writer_->Open(LogPath(generation_), generation_,
                     options_.log_sync_every, log_end_,
                     options_.fault_injector, error)) {
    writer_.reset();
    return false;
  }
  log_end_ = writer_->end_offset();
  // The log's dirent must be durable too: fsyncing the file contents
  // (which Open did for a fresh header) does not persist the directory
  // entry, and losing the dirent in a crash drops the whole log.
  if (!FsyncDir(options_.dir, error)) {
    writer_->Close();
    writer_.reset();
    return false;
  }
  logging_ = true;
  catalog->SetMutationSink(
      [this](const service::MutationRecord& record,
             const std::shared_ptr<const Community>& community) {
        std::lock_guard sink_lock(writer_mu_);
        if (writer_ == nullptr) return;
        if (record.remove) {
          writer_->AppendRemove(record.id);
        } else {
          writer_->AppendUpsert(record.id, record.version, *community);
        }
      });
  return true;
}

void Store::StopLogging(service::CommunityCatalog* catalog) {
  if (catalog != nullptr) catalog->SetMutationSink(nullptr);
  std::lock_guard lock(writer_mu_);
  if (writer_ != nullptr) {
    writer_->Close();
    log_end_ = writer_->end_offset();
    writer_.reset();
  }
  logging_ = false;
}

bool Store::Checkpoint(const service::CommunityCatalog& catalog,
                       std::string* error, CheckpointStats* stats) {
  if (stats != nullptr) *stats = CheckpointStats{};
  const uint64_t new_generation = generation_ + 1;

  util::Timer timer;
  const std::vector<service::CatalogEntry> snapshot = catalog.Snapshot();
  const SegmentImage image(catalog, snapshot);
  if (stats != nullptr) stats->snapshot_seconds = timer.Seconds();
  timer.Reset();

  const std::string segment_path = SegmentPath(new_generation);
  if (!image.Write(segment_path, error)) return false;
  if (stats != nullptr) stats->write_seconds = timer.Seconds();
  timer.Reset();

  // Commit: roll the log under the writer lock. The lock only orders
  // sink appends against the writer swap — it does NOT cover the window
  // between catalog.Snapshot() above and this flip. A mutation landing
  // in that window would live only in the old-generation log, which is
  // unlinked below, and be lost. Safety rests entirely on the
  // documented precondition that callers checkpoint at quiesce points
  // (no in-flight mutations from snapshot through commit).
  {
    std::lock_guard lock(writer_mu_);
    if (writer_ != nullptr) {
      writer_->Close();
      log_end_ = writer_->end_offset();
      writer_.reset();
    }
    if (!CommitSuperblock(new_generation, error)) {
      logging_ = false;  // degraded: the old log writer is gone
      return false;
    }
    const uint64_t old_generation = generation_;
    generation_ = new_generation;
    (void)::unlink(SegmentPath(old_generation).c_str());
    (void)::unlink(LogPath(old_generation).c_str());
    log_image_ = LogImage{};
    log_end_ = 0;
    if (logging_) {
      writer_ = std::make_unique<LogWriter>();
      if (!writer_->Open(LogPath(generation_), generation_,
                         options_.log_sync_every, /*resume_at=*/0,
                         options_.fault_injector, error)) {
        writer_.reset();
        logging_ = false;
        return false;
      }
      log_end_ = writer_->end_offset();
      // Make the rolled log's dirent durable (CommitSuperblock's
      // directory fsync happened BEFORE this file was created).
      if (!FsyncDir(options_.dir, error)) {
        writer_->Close();
        writer_.reset();
        logging_ = false;
        return false;
      }
    }
  }
  // Remap so a same-process RestoreInto (populate-compare, tests) reads
  // the generation just sealed.
  segment_ = MappedSegment::Map(segment_path, /*willneed=*/true,
                                /*hugepages=*/true, error);
  if (segment_ == nullptr) return false;

  if (stats != nullptr) {
    stats->commit_seconds = timer.Seconds();
    stats->generation = new_generation;
    stats->entries = snapshot.size();
    stats->bytes = segment_->size();
  }
  return true;
}

}  // namespace csj::persist
