#include "service/catalog.h"

#include <algorithm>
#include <utility>

#include "core/encoding.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj::service {

LiveCoupleSession::LiveCoupleSession(const CommunityCatalog* catalog,
                                     CatalogEntry entry,
                                     const JoinOptions& join)
    : catalog_(catalog),
      entry_(std::move(entry)),
      live_(*entry_.community, join) {}

bool LiveCoupleSession::Stale() const {
  const CatalogEntry current = catalog_->Get(entry_.id);
  return current.community == nullptr || current.version != entry_.version;
}

CommunityCatalog::CommunityCatalog() : CommunityCatalog(Options{}) {}

CommunityCatalog::CommunityCatalog(Options options) : options_(options) {
  options_.shards = std::max(options_.shards, 1u);
  shards_ = std::vector<Shard>(options_.shards);
  if (options_.signatures.has_value()) {
    signature_index_ = std::make_unique<SignatureIndex>(
        options_.shards, *options_.signatures);
  }
  if (options_.mutation_log_capacity > 0) {
    mutation_log_ = std::make_unique<MutationLog>();
  }
}

void CommunityCatalog::Publish(
    uint64_t id, uint64_t version,
    const std::shared_ptr<const Community>& community) {
  MutationRecord record{0, id, version, /*remove=*/community == nullptr};
  if (mutation_log_ != nullptr) {
    MutationLog& log = *mutation_log_;
    std::lock_guard lock(log.mu);
    record.seq = log.next_seq++;
    log.records.push_back(record);
    while (log.records.size() > options_.mutation_log_capacity) {
      log.records.pop_front();
      ++log.first_seq;
    }
  }
  if (mutation_sink_) mutation_sink_(record, community);
}

uint64_t CommunityCatalog::mutation_seq() const {
  if (mutation_log_ == nullptr) return 0;
  std::lock_guard lock(mutation_log_->mu);
  return mutation_log_->next_seq - 1;
}

bool CommunityCatalog::ReadMutationsSince(
    uint64_t cursor, std::vector<MutationRecord>* out) const {
  if (mutation_log_ == nullptr) return false;
  MutationLog& log = *mutation_log_;
  std::lock_guard lock(log.mu);
  // A consumer is in sync iff no record in (cursor, next_seq) has been
  // truncated. With a dense deque that means cursor >= first_seq - 1.
  if (cursor + 1 < log.first_seq) return false;
  const uint64_t last = log.next_seq - 1;
  if (cursor >= last) return true;  // nothing new
  // Dense seqs make the suffix a direct index: records[i].seq ==
  // first_seq + i.
  const auto begin = static_cast<std::ptrdiff_t>(cursor + 1 - log.first_seq);
  out->insert(out->end(), log.records.begin() + begin, log.records.end());
  return true;
}

uint32_t CommunityCatalog::ShardIndexOf(uint64_t id) const {
  // Mix before reducing so dense sequential ids (the common assignment
  // scheme) and strided ids both spread over the shards.
  uint64_t state = id;
  return static_cast<uint32_t>(util::SplitMix64(state) % shards_.size());
}

const CommunityCatalog::Shard& CommunityCatalog::ShardOf(uint64_t id) const {
  return shards_[ShardIndexOf(id)];
}

CommunityCatalog::Shard& CommunityCatalog::ShardOf(uint64_t id) {
  return const_cast<Shard&>(
      static_cast<const CommunityCatalog*>(this)->ShardOf(id));
}

namespace {

/// The Encoder the warm builds use, memoized per thread: batches are
/// near-always one dimensionality, and the constructor allocates its
/// part-boundary table. The memo keys on the raw construction
/// parameters, since the thread_local outlives any one catalog and must
/// not leak across catalogs configured with different warm options.
const Encoder& WarmEncoder(Dim d, Epsilon eps, uint32_t parts) {
  struct EncoderMemo {
    std::unique_ptr<Encoder> encoder;
    Dim d = 0;
    Epsilon eps = 0;
    uint32_t parts = 0;
  };
  thread_local EncoderMemo memo;
  if (memo.encoder == nullptr || memo.d != d || memo.eps != eps ||
      memo.parts != parts) {
    memo.encoder = std::make_unique<Encoder>(d, eps, parts);
    memo.d = d;
    memo.eps = eps;
    memo.parts = parts;
  }
  return *memo.encoder;
}

/// Streams `community`'s counters toward the cache ahead of its next
/// touch. The digest is each buffer's first touch since the generator
/// built it, and with ~20 KB of artifact traffic between touches the
/// hardware prefetcher never re-arms, leaving that first walk
/// latency-bound (measured ~3x slower than the prefetched walk).
void PrefetchCounters(const Community& community) {
  const auto flat = community.flat();
  for (size_t b = 0; b < flat.size(); b += 16) __builtin_prefetch(&flat[b]);
}

/// A prepare-step input carrying nothing prebuilt: the entry of an
/// Upsert or a BulkLoad member.
CommunityCatalog::RestoredEntry Fresh(
    uint64_t id, uint64_t version, std::shared_ptr<const Community> community) {
  CommunityCatalog::RestoredEntry pending;
  pending.id = id;
  pending.version = version;
  pending.community = std::move(community);
  return pending;
}

}  // namespace

CatalogEntry CommunityCatalog::PrepareEncodings(RestoredEntry&& pending,
                                                bool digested) const {
  CatalogEntry entry;
  entry.id = pending.id;
  entry.version = pending.version;
  entry.community = std::move(pending.community);
  entry.digest = digested ? pending.digest : DigestCommunity(*entry.community);
  if (signature_index_ != nullptr) {
    entry.signature = std::move(pending.signature);
  }
  if (options_.cache != nullptr) {
    // The warm artifacts are built directly and inserted with Put*: the
    // promise/future build dedup of the Get* lookups measured at about
    // half the warmup cost per entry. Keys use the CLAMPED part count,
    // exactly as the join methods do, so the first query's lookups hit.
    const Community& community = *entry.community;
    const uint32_t parts =
        Encoder::ClampParts(options_.warm_parts, community.d());
    if (pending.encoded_b == nullptr || pending.encoded_a == nullptr) {
      const Encoder& encoder =
          WarmEncoder(community.d(), options_.warm_eps, options_.warm_parts);
      if (pending.encoded_b == nullptr) {
        pending.encoded_b =
            std::make_shared<const EncodedB>(community, encoder);
      }
      if (pending.encoded_a == nullptr) {
        pending.encoded_a =
            std::make_shared<const EncodedA>(community, encoder);
      }
    }
    options_.cache->PutEncodedB(entry.digest, options_.warm_eps, parts,
                                std::move(pending.encoded_b));
    options_.cache->PutEncodedA(entry.digest, options_.warm_eps, parts,
                                std::move(pending.encoded_a));
  }
  return entry;
}

void CommunityCatalog::PrepareSketch(CatalogEntry* entry) const {
  if (signature_index_ == nullptr || entry->signature != nullptr) return;
  // The digest's exact max counter feeds the radix key width, saving
  // the builder its own max-scan pass.
  thread_local SketchScratch scratch;
  entry->signature = std::make_shared<const CommunitySignature>(
      *entry->community, signature_index_->options(), &scratch,
      entry->digest.max_counter);
}

void CommunityCatalog::InstallShard(uint32_t shard_index,
                                    std::span<CatalogEntry> entries,
                                    std::span<const uint32_t> members,
                                    bool notify) {
  Shard& shard = shards_[shard_index];
  std::vector<SignatureIndex::SlotInstall> installs;
  if (signature_index_ != nullptr) {
    installs.reserve(members.size());
    for (const uint32_t i : members) {
      installs.push_back(
          {entries[i].id, entries[i].version, entries[i].signature});
    }
  }
  // Mutation clock: `started` ticks BEFORE the install is visible to any
  // reader, `finished` after it is complete. The lock-free prepare work
  // changes no catalog state, so it stays outside the window and tagged
  // readers are not invalidated by it.
  mutations_started_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock lock(shard.mu);
    // Publish first, in member order, while the entries still hold their
    // community pointers (the move loop below strips them). Same critical
    // section as the install, so neither the journal nor the sink order
    // can contradict the install order readers observe.
    if (notify) {
      for (const uint32_t i : members) {
        Publish(entries[i].id, entries[i].version, entries[i].community);
      }
    }
    for (const uint32_t i : members) {
      // Duplicate ids overwrite in member order: last wins, as a
      // sequential Upsert replay would. The end hint makes each insert
      // O(1) for ascending ids; others fall back to a plain tree insert.
      const uint64_t id = entries[i].id;
      shard.entries.insert_or_assign(shard.entries.end(), id,
                                     std::move(entries[i]));
    }
    // Entry map and sketch store commit in one critical section, so a
    // probe (under the shared lock) always sees them in agreement.
    if (signature_index_ != nullptr) {
      signature_index_->InstallBatch(shard_index, installs);
    }
  }
  mutations_finished_.fetch_add(1, std::memory_order_acq_rel);
}

void CommunityCatalog::InstallByShard(std::span<CatalogEntry> entries,
                                      bool notify) {
  const auto n = static_cast<uint32_t>(entries.size());
  std::vector<std::vector<uint32_t>> by_shard(shards_.size());
  for (auto& members : by_shard) {
    members.reserve(n / shards_.size() + n / (4 * shards_.size()) + 8);
  }
  for (uint32_t i = 0; i < n; ++i) {
    by_shard[ShardIndexOf(entries[i].id)].push_back(i);
  }
  // Serial over shards, so the whole-batch journal order is deterministic
  // too. Each completed shard flip is a stable state for tagged readers.
  for (uint32_t shard_index = 0; shard_index < shards_.size();
       ++shard_index) {
    if (by_shard[shard_index].empty()) continue;
    InstallShard(shard_index, entries, by_shard[shard_index], notify);
  }
}

uint64_t CommunityCatalog::Upsert(uint64_t id, Community community) {
  CSJ_CHECK(!community.empty()) << "catalog entries must be non-empty";
  // Prepare inline and OUTSIDE any lock: digesting is O(n*d) and the
  // encoders and the sketch sort the whole community, so holding a shard
  // lock across them would stall every reader of the shard.
  CatalogEntry entry = PrepareEncodings(
      Fresh(id, 0, std::make_shared<const Community>(std::move(community))),
      /*digested=*/false);
  PrepareSketch(&entry);
  entry.version = next_version_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t version = entry.version;
  const uint32_t member = 0;
  InstallShard(ShardIndexOf(id), {&entry, 1}, {&member, 1}, /*notify=*/true);
  upserts_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

uint64_t CommunityCatalog::BulkLoad(
    std::vector<std::pair<uint64_t, Community>> batch, BulkLoadStats* stats) {
  std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> frozen;
  frozen.reserve(batch.size());
  for (auto& [id, community] : batch) {
    frozen.emplace_back(
        id, std::make_shared<const Community>(std::move(community)));
  }
  return BulkLoad(std::move(frozen), stats);
}

uint64_t CommunityCatalog::BulkLoad(
    std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> batch,
    BulkLoadStats* stats) {
  if (stats != nullptr) *stats = BulkLoadStats{};
  const uint32_t n = static_cast<uint32_t>(batch.size());
  if (n == 0) return 0;
  if (stats != nullptr) stats->entries = n;
  for (const auto& [id, community] : batch) {
    CSJ_CHECK(community != nullptr && !community->empty())
        << "catalog entries must be non-empty";
  }

  // Reserve the whole version block up front: element i gets base + i,
  // exactly the version a sequential Upsert loop would have issued (and
  // concurrent Upserts slot before or after the block, never inside it).
  const uint64_t base =
      next_version_.fetch_add(n, std::memory_order_acq_rel);

  util::ThreadPool& pool = util::ThreadPool::Global();
  std::vector<CatalogEntry> entries(n);

  // Two warm artifacts land in the cache per entry; pre-sizing its
  // shard tables once removes every incremental rehash from the waves.
  if (options_.cache != nullptr) {
    options_.cache->Reserve(static_cast<size_t>(n) * 2);
  }

  // The two prepare stages read the same counter buffers, so they run as
  // waves over cache-sized chunks: at catalog scale a full-batch sketch
  // wave would find every community long since evicted and re-stream
  // the whole catalog from DRAM, while a ~9 MB chunk is still
  // LLC-resident from the encode wave. Phase timers accumulate across
  // chunks. Knowing the next community (and prefetching it) is a
  // batch-only luxury the per-entry Upsert path has no equivalent of.
  constexpr uint32_t kWaveChunk = 2048;
  double encode_seconds = 0.0;
  double sketch_seconds = 0.0;
  util::Timer phase_timer;
  for (uint32_t chunk = 0; chunk < n; chunk += kWaveChunk) {
    const uint32_t count = std::min(kWaveChunk, n - chunk);
    phase_timer.Reset();
    pool.Run(count, [&](uint32_t t) {
      const uint32_t i = chunk + t;
      // The buffer is copied, not moved, out of the batch: the tasks for
      // i - 1 of both waves read batch[i] for their prefetch.
      if (i + 1 < n) PrefetchCounters(*batch[i + 1].second);
      entries[i] =
          PrepareEncodings(Fresh(batch[i].first, base + i, batch[i].second),
                           /*digested=*/false);
    });
    encode_seconds += phase_timer.Seconds();

    phase_timer.Reset();
    if (signature_index_ != nullptr) {
      pool.Run(count, [&](uint32_t t) {
        const uint32_t i = chunk + t;
        if (i + 1 < n) PrefetchCounters(*batch[i + 1].second);
        PrepareSketch(&entries[i]);
      });
    }
    sketch_seconds += phase_timer.Seconds();
  }
  if (stats != nullptr) {
    stats->encode_seconds = encode_seconds;
    stats->sketch_seconds = sketch_seconds;
  }

  phase_timer.Reset();
  InstallByShard(entries, /*notify=*/true);
  if (stats != nullptr) stats->install_seconds = phase_timer.Seconds();
  upserts_.fetch_add(n, std::memory_order_relaxed);
  return base + n - 1;
}

uint64_t CommunityCatalog::RestoreBatch(std::vector<RestoredEntry> batch,
                                        uint64_t next_version,
                                        BulkLoadStats* stats) {
  if (stats != nullptr) *stats = BulkLoadStats{};
  const uint32_t n = static_cast<uint32_t>(batch.size());
  if (stats != nullptr) stats->entries = n;
  for (const RestoredEntry& entry : batch) {
    CSJ_CHECK(entry.community != nullptr && !entry.community->empty())
        << "catalog entries must be non-empty";
    CSJ_CHECK_GE(entry.version, 1u);
    CSJ_CHECK_LT(entry.version, next_version)
        << "restored version outside the recovered version horizon";
  }
  CSJ_CHECK_GE(next_version, 1u);

  std::vector<CatalogEntry> entries(n);
  if (options_.cache != nullptr && n > 0) {
    options_.cache->Reserve(static_cast<size_t>(n) * 2);
  }

  // One wave, not BulkLoad's two: the common restore adopts every
  // derived artifact (zero-copy views over the mapped segment), so per
  // entry this is two cache inserts and two shared_ptr adoptions. Only
  // log-tail entries, whose artifacts were never checkpointed, pay a
  // build, through the same prepare step Upsert uses, so the recovered
  // bytes match what the writer held.
  util::Timer phase_timer;
  util::ThreadPool::Global().Run(n, [&](uint32_t i) {
    entries[i] = PrepareEncodings(std::move(batch[i]), /*digested=*/true);
    PrepareSketch(&entries[i]);
  });
  if (stats != nullptr) stats->encode_seconds = phase_timer.Seconds();

  // Batch order within each shard replays the writer's install history,
  // so the recovered index pack layout matches. No journal append and
  // no sink: a restore replays durable history, it does not create any.
  phase_timer.Reset();
  InstallByShard(entries, /*notify=*/false);
  if (stats != nullptr) stats->install_seconds = phase_timer.Seconds();

  // Resume the writer's version sequence. fetch_max semantics: restore
  // only ever runs on a fresh catalog, but stay monotone regardless.
  uint64_t current = next_version_.load(std::memory_order_acquire);
  while (current < next_version &&
         !next_version_.compare_exchange_weak(current, next_version,
                                              std::memory_order_acq_rel)) {
  }
  upserts_.fetch_add(n, std::memory_order_relaxed);
  return n == 0 ? 0 : next_version - 1;
}

bool CommunityCatalog::Remove(uint64_t id) {
  const uint32_t shard_index = ShardIndexOf(id);
  Shard& shard = shards_[shard_index];
  bool removed = false;
  // The clock must tick before we can know whether the id is resident, so
  // a Remove of an absent id ticks too: a spurious invalidation for
  // tagged readers, never a missed one.
  mutations_started_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock lock(shard.mu);
    removed = shard.entries.erase(id) > 0;
    if (removed && signature_index_ != nullptr) {
      signature_index_->Remove(shard_index, id);
    }
    // Only a remove that actually erased something is published: a
    // Remove of an absent id changes no observable state for consumers.
    if (removed) Publish(id, /*version=*/0, /*community=*/nullptr);
  }
  mutations_finished_.fetch_add(1, std::memory_order_acq_rel);
  if (removed) removes_.fetch_add(1, std::memory_order_relaxed);
  return removed;
}

CatalogEntry CommunityCatalog::Get(uint64_t id) const {
  const Shard& shard = ShardOf(id);
  std::shared_lock lock(shard.mu);
  const auto it = shard.entries.find(id);
  return it == shard.entries.end() ? CatalogEntry{} : it->second;
}

std::vector<CatalogEntry> CommunityCatalog::Snapshot() const {
  std::vector<CatalogEntry> snapshot;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [id, entry] : shard.entries) snapshot.push_back(entry);
  }
  // Shards partition ids by hash, so the concatenation is ordered within
  // a shard but not globally; one sort restores the deterministic
  // ascending-id order every consumer (and the top-k tie-break) assumes.
  std::sort(snapshot.begin(), snapshot.end(),
            [](const CatalogEntry& x, const CatalogEntry& y) {
              return x.id < y.id;
            });
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  return snapshot;
}

CommunityCatalog::ProbeResult CommunityCatalog::ProbeCandidates(
    const CommunitySignature& query_signature,
    std::span<const Dim> probe_order, Epsilon eps, double threshold) const {
  CSJ_CHECK(signature_index_ != nullptr)
      << "ProbeCandidates requires Options::signatures";
  ProbeResult result;
  SignatureIndex::ProbeQuery probe;
  probe.signature = &query_signature;
  probe.eps = eps;
  probe.threshold = threshold;
  probe.probe_order = probe_order;
  std::vector<PrescreenCandidate> passing;
  for (uint32_t shard_index = 0; shard_index < shards_.size();
       ++shard_index) {
    const Shard& shard = shards_[shard_index];
    std::shared_lock lock(shard.mu);
    passing.clear();
    signature_index_->ProbeShard(shard_index, probe, &passing, &result.stats);
    for (const PrescreenCandidate& candidate : passing) {
      const auto it = shard.entries.find(candidate.id);
      // Index rows and entries commit under one exclusive lock, so a
      // passing id is always resident at exactly the probed version.
      CSJ_CHECK(it != shard.entries.end());
      CSJ_CHECK(it->second.version == candidate.version);
      result.candidates.push_back(it->second);
    }
  }
  // Same deterministic ascending-id order as Snapshot(): the top-k walk's
  // tie-break and the differential tests both assume it.
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const CatalogEntry& x, const CatalogEntry& y) {
              return x.id < y.id;
            });
  probes_.fetch_add(1, std::memory_order_relaxed);
  prescreen_packs_skipped_.fetch_add(result.stats.packs_skipped,
                                     std::memory_order_relaxed);
  return result;
}

uint32_t CommunityCatalog::size() const {
  uint32_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    total += static_cast<uint32_t>(shard.entries.size());
  }
  return total;
}

std::unique_ptr<LiveCoupleSession> CommunityCatalog::AttachLive(
    const Community& query, uint64_t entry_id, const JoinOptions& join) const {
  CatalogEntry entry = Get(entry_id);
  if (entry.community == nullptr) return nullptr;
  if (entry.community->d() != query.d()) return nullptr;
  auto session = std::unique_ptr<LiveCoupleSession>(
      new LiveCoupleSession(this, std::move(entry), join));
  for (UserId u = 0; u < query.size(); ++u) {
    session->AddSubscriber(query.User(u));
  }
  return session;
}

CommunityCatalog::Stats CommunityCatalog::GetStats() const {
  Stats stats;
  stats.upserts = upserts_.load(std::memory_order_relaxed);
  stats.removes = removes_.load(std::memory_order_relaxed);
  stats.snapshots = snapshots_.load(std::memory_order_relaxed);
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.prescreen_packs_skipped =
      prescreen_packs_skipped_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace csj::service
