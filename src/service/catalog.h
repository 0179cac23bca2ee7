#ifndef CSJ_SERVICE_CATALOG_H_
#define CSJ_SERVICE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/community.h"
#include "core/encoding.h"
#include "core/encoding_cache.h"
#include "core/join_options.h"
#include "core/signature.h"
#include "core/types.h"
#include "incremental/incremental_csj.h"

namespace csj::service {

/// One resident catalog community, as handed out by Get()/Snapshot().
///
/// Entries are COPY-ON-WRITE: the Community behind `community` is frozen
/// at Upsert time and never mutated afterwards — an upsert of the same id
/// installs a NEW shared buffer under a NEW version and simply drops the
/// shard's reference to the old one. Any reader (a snapshot, a running
/// top-k query, a live session) that still holds the shared_ptr keeps the
/// old buffers alive and consistent; there is no in-place mutation to
/// race with, which is what makes long joins against a churning catalog
/// safe.
struct CatalogEntry {
  uint64_t id = 0;
  /// Catalog-wide monotonic version, unique per successful Upsert. A
  /// larger version was installed later (across ALL ids, not just this
  /// one), so "did this entry change since I looked?" is one compare.
  uint64_t version = 0;
  std::shared_ptr<const Community> community;
  /// Content fingerprint + max counter, computed once at install. The
  /// persist layer seals it and the sketch builder reads max_counter;
  /// joins still re-digest both sides on every call.
  CommunityDigest digest;
  /// Prescreen sketch, built at install when the catalog has a signature
  /// index configured (null otherwise). Frozen with the community.
  std::shared_ptr<const CommunitySignature> signature;
};

/// One effective mutation: which id changed, in what way, in which
/// order. The optional bounded journal (Options::mutation_log_capacity)
/// retains these records — consumers such as `TopKMaintainer` replay the
/// suffix since their cursor instead of re-scanning the catalog — and
/// the durable-log sink (SetMutationSink) receives the same record.
struct MutationRecord {
  /// Dense 1-based journal ordinal — record seq is issued exactly once
  /// and never skipped, so a consumer holding cursor c has seen the
  /// complete mutation history iff it reads every record with seq > c.
  /// 0 when the journal is disabled.
  uint64_t seq = 0;
  uint64_t id = 0;
  /// The installed entry version for upserts; 0 for removes (a Remove
  /// consumes no catalog version, matching the un-logged behavior).
  uint64_t version = 0;
  bool remove = false;
};

/// A live, incrementally maintained exact similarity between ONE query
/// community (the churn side, B) and ONE pinned catalog entry (A).
///
/// Attaching pins the entry's snapshot: the session stays valid and
/// exact against the PINNED version even while the catalog replaces or
/// removes the entry. `Stale()` reports when the catalog has moved on;
/// the owner re-attaches to follow (rebuilds are the documented A-churn
/// policy of IncrementalCsj).
///
/// A session is externally synchronized: one owner drives it (the
/// subscriber-churn stream of one query), concurrency across sessions
/// and against the catalog is free.
class LiveCoupleSession {
 public:
  using Handle = incremental::IncrementalCsj::Handle;

  /// Subscriber churn on the query side; exact matching maintained after
  /// every call (see incremental/incremental_csj.h).
  Handle AddSubscriber(std::span<const Count> vec) {
    return live_.AddUser(vec);
  }
  bool RemoveSubscriber(Handle handle) { return live_.RemoveUser(handle); }

  double Similarity() const { return live_.Similarity(); }
  uint32_t live_subscribers() const { return live_.live_users(); }
  uint32_t matched_pairs() const { return live_.matched_pairs(); }
  bool SizesAdmissible() const { return live_.SizesAdmissible(); }

  /// The catalog entry this session is pinned to (its frozen snapshot).
  const CatalogEntry& entry() const { return entry_; }

  /// True when the catalog no longer holds exactly the pinned version of
  /// the entry (it was upserted again or removed). The session itself
  /// remains valid and exact against the pinned snapshot.
  bool Stale() const;

 private:
  friend class CommunityCatalog;
  LiveCoupleSession(const class CommunityCatalog* catalog, CatalogEntry entry,
                    const JoinOptions& join);

  const class CommunityCatalog* catalog_;
  CatalogEntry entry_;
  incremental::IncrementalCsj live_;
};

/// Sharded, versioned community catalog — the stateful half of the
/// serving subsystem. Holds the platform's brand communities behind
/// per-shard shared_mutexes so concurrent Upsert/Remove/Snapshot/Get
/// from many server workers never serialize on one lock.
///
/// Snapshot semantics: a snapshot is PER-SHARD atomic — each shard's
/// entries are read under one shared lock, so a snapshot never observes a
/// torn entry or a half-applied upsert. Across shards it is NOT a global
/// point in time: an upsert racing the snapshot may appear in a later
/// shard but not an earlier one. Queries accept this (a request racing an
/// upsert may legitimately see either state); anything needing stronger
/// ordering keys off entry versions, which are catalog-wide monotonic.
///
/// Warmup: when a `cache` is configured, every install pre-builds the
/// entry's MinMax encoded buffers (both sides) for (warm_eps, warm_parts)
/// OUTSIDE any shard lock, so the first Ex-MinMax query against a fresh
/// entry pays no encoding build on the serving path. Nothing is warmed
/// for the Baseline methods: their community window is built on the
/// first Baseline join (EncodingCache::GetCommunityWindow).
class CommunityCatalog {
 public:
  struct Options {
    /// Lock shards; clamped to >= 1. 8 is plenty below ~10^2 workers.
    uint32_t shards = 8;
    /// Optional encoding cache to warm entries into (not owned; must
    /// outlive the catalog): every install puts the entry's EncodedB and
    /// EncodedA for (warm_eps, clamped warm_parts) there. Queries wanting
    /// the warmed buffers must use the same cache via JoinOptions::cache.
    EncodingCache* cache = nullptr;
    /// Parameters the warmup builds for; align them with the serving
    /// JoinOptions or the first query still builds its own.
    Epsilon warm_eps = 1;
    uint32_t warm_parts = 4;
    /// When set, the catalog maintains a SignatureIndex: Upsert builds
    /// the entry's sketch (outside any lock, next to the cache warmup)
    /// and installs it — under the SAME exclusive shard lock as the
    /// entry map, so index and entries can never disagree. Queries use
    /// ProbeCandidates() for sub-linear candidate generation.
    std::optional<SignatureOptions> signatures;
    /// When nonzero, every successful mutation (Upsert, BulkLoad member,
    /// Remove of a resident id) appends a MutationRecord to a bounded
    /// in-memory log holding the most recent `mutation_log_capacity`
    /// records. Appends happen inside the same exclusive shard section
    /// as the install itself, so for any single id the log order equals
    /// the install order. 0 (the default) disables the log entirely —
    /// no behavior or cost change for existing deployments.
    size_t mutation_log_capacity = 0;
  };

  // Two overloads rather than `Options options = {}`: a nested struct's
  // default member initializers are not usable in a default argument
  // until the enclosing class is complete.
  CommunityCatalog();
  explicit CommunityCatalog(Options options);

  /// Installs (or replaces) the community under `id` and returns the new
  /// catalog-wide version. The community is frozen (moved into a shared
  /// immutable buffer); digesting and cache warmup run outside any lock.
  uint64_t Upsert(uint64_t id, Community community);

  /// Per-phase accounting of one BulkLoad call.
  struct BulkLoadStats {
    uint64_t entries = 0;
    double encode_seconds = 0.0;   ///< digest + cache warm wave
    double sketch_seconds = 0.0;   ///< signature build wave
    double install_seconds = 0.0;  ///< per-shard locked install phase
  };

  /// Batched ingestion fast path: installs every (id, community) of
  /// `batch` and returns the LAST version issued (0 for an empty batch).
  /// The final catalog + signature-index state is byte-identical to
  /// calling Upsert once per element in batch order — a contiguous
  /// version block is reserved up front so element i gets exactly the
  /// version the sequential loop would have issued, and each shard's
  /// elements are installed in batch order (duplicate ids: last wins,
  /// exactly like repeated Upserts). What makes it fast on one core is
  /// fewer operations, not threads: warm cache artifacts are built
  /// directly and bulk-inserted (no per-key build-dedup machinery),
  /// sketches go through the scratch-reusing builder, and each shard
  /// takes ONE exclusive lock for its whole sub-batch with index pack
  /// capacity reserved up front. The parallel waves additionally scale
  /// on multi-core hosts. Safe under concurrent Query/Upsert/Remove
  /// traffic: per-shard installs use the same locks and mutation-clock
  /// ticks as Upsert, so tagged readers see each shard flip atomically.
  uint64_t BulkLoad(std::vector<std::pair<uint64_t, Community>> batch,
                    BulkLoadStats* stats = nullptr);

  /// Zero-copy variant for callers that already hold frozen (immutable,
  /// shared) communities — the catalog installs the caller's buffers
  /// directly instead of copying them. Same contract as above in every
  /// other respect; every pointer must be non-null and non-empty.
  uint64_t BulkLoad(
      std::vector<std::pair<uint64_t, std::shared_ptr<const Community>>> batch,
      BulkLoadStats* stats = nullptr);

  /// Removes `id`. Returns false when absent. Readers holding the entry
  /// keep its buffers alive; the catalog just forgets it.
  bool Remove(uint64_t id);

  /// One entry of a RestoreBatch() call: a fully reconstructed catalog
  /// entry carrying its ORIGINAL version plus any pre-built derived
  /// artifacts. `signature` may be null (built at restore when the
  /// catalog has a signature index); the two warm-cache artifacts may
  /// individually be null (built at restore when a cache is configured).
  struct RestoredEntry {
    uint64_t id = 0;
    uint64_t version = 0;
    std::shared_ptr<const Community> community;
    CommunityDigest digest;
    std::shared_ptr<const CommunitySignature> signature;
    std::shared_ptr<const EncodedB> encoded_b;
    std::shared_ptr<const EncodedA> encoded_a;
  };

  /// Recovery fast path: installs every entry of `batch` under its
  /// EXPLICIT version (BulkLoad cannot do this — it reissues a fresh
  /// contiguous block, and a store recovering `{v3, v17}` after removes
  /// holds a non-contiguous version set) and advances the catalog's
  /// version counter to exactly `next_version`, so post-restore upserts
  /// issue the same versions the pre-crash catalog would have.
  ///
  /// Entry ids must be unique and versions unique and < `next_version`;
  /// batch order is the install order within each shard, which a persist
  /// layer uses to replay the writer's exact index pack layout. Entries
  /// go through the same prepare step and per-shard install section as
  /// Upsert and BulkLoad, except that the given digest is trusted and
  /// the provided EncodedB/EncodedA and sketch are adopted as-is (keyed
  /// on warm_eps / clamped warm_parts); absent ones are built,
  /// byte-identical to what Upsert would have produced. The mutation
  /// SINK is deliberately not invoked — a restore replays the durable
  /// log, it must not re-append to it — and the in-RAM journal stays
  /// empty: it is bounded history, not state, and consumers
  /// resynchronize via mutation_seq() cursors.
  uint64_t RestoreBatch(std::vector<RestoredEntry> batch,
                        uint64_t next_version, BulkLoadStats* stats = nullptr);

  /// Installs the DURABLE-LOG SEAM: `sink` is invoked once per effective
  /// mutation (every Upsert, every BulkLoad member, every Remove that
  /// erased a resident id) INSIDE the same exclusive shard section as
  /// the install itself — the same spot the in-RAM journal appends — so
  /// the sink's observed order can never contradict the install order
  /// any reader observes, per shard and per id. The sink must be
  /// thread-safe (shards mutate concurrently) and fast: it runs under a
  /// shard lock, so it should buffer, not block on I/O. Set it while the
  /// catalog is quiescent (there is no synchronization against in-flight
  /// mutations); pass nullptr to detach. Besides the journal's record the
  /// sink receives the frozen installed buffer (null for removes), so a
  /// persistence layer can write a self-contained log record without
  /// re-reading the catalog; it may retain the shared_ptr.
  using MutationSink = std::function<void(
      const MutationRecord&, const std::shared_ptr<const Community>&)>;
  void SetMutationSink(MutationSink sink) { mutation_sink_ = std::move(sink); }

  /// The current entry for `id`, or an empty optional-like entry
  /// (community == nullptr) when absent.
  CatalogEntry Get(uint64_t id) const;

  /// All resident entries, ascending id (deterministic for a quiesced
  /// catalog). See the class comment for cross-shard semantics.
  std::vector<CatalogEntry> Snapshot() const;

  /// Resident entry count (sum over shards; racy under churn, exact when
  /// quiesced).
  uint32_t size() const;

  /// Largest version issued so far (0 before the first upsert).
  uint64_t latest_version() const {
    return next_version_.load(std::memory_order_acquire) - 1;
  }

  /// The MUTATION CLOCK: two monotonic counters bumped around every
  /// state-changing operation (Upsert and Remove — including a Remove of
  /// an absent id, which spuriously ticks but never lies). `started` is
  /// incremented BEFORE the operation touches any shard; `finished` AFTER
  /// its effects are fully installed. Always finished <= started; they
  /// are equal exactly when the catalog is quiescent.
  ///
  /// The clock is what makes version-tagged read results (the server's
  /// hot-query result cache, its shared snapshot) provably safe:
  ///
  ///   f1 = mutations_finished();      // BEFORE the read
  ///   ... snapshot / compute ...
  ///   s2 = mutations_started();       // AFTER the read
  ///
  /// If f1 == s2, every mutation that ever started had fully finished
  /// before the read began (finished <= started is monotone), and none
  /// started while it ran — the read observed ONE stable state, uniquely
  /// named by the tag f1. A tagged artifact may be reused as long as
  /// mutations_started() still equals its tag: no mutation has begun
  /// since the stable state it captured, so the state is bit-identical.
  /// Any in-flight or later mutation bumps `started` first and the tag
  /// check fails — invalidation costs one relaxed load.
  uint64_t mutations_started() const {
    return mutations_started_.load(std::memory_order_acquire);
  }
  uint64_t mutations_finished() const {
    return mutations_finished_.load(std::memory_order_acquire);
  }

  /// Last mutation-log sequence number issued (0 before the first logged
  /// mutation, and always 0 when the log is disabled).
  uint64_t mutation_seq() const;

  /// Appends every retained log record with seq > `cursor` to `out`, in
  /// append order, and returns true. Returns false — appending nothing —
  /// when the log is disabled or when records after `cursor` have
  /// already been truncated away (the consumer fell more than
  /// `mutation_log_capacity` records behind); the caller must then
  /// resynchronize with a full recompute against the live catalog.
  /// Passing cursor = mutation_seq() read at resync time restarts clean:
  /// mutations racing the resync read land after that cursor and are
  /// replayed (possibly redundantly, never missed) on the next call.
  bool ReadMutationsSince(uint64_t cursor,
                          std::vector<MutationRecord>* out) const;

  /// Pins the current entry of `entry_id` and builds a live incremental
  /// session for (query, entry): the query community's users are seeded
  /// as the initial subscribers (handles 0..n-1 in user order), further
  /// churn goes through the session. Returns nullptr when the id is
  /// absent or the dimensionalities differ. `join` supplies eps and the
  /// encoding part count.
  std::unique_ptr<LiveCoupleSession> AttachLive(const Community& query,
                                                uint64_t entry_id,
                                                const JoinOptions& join) const;

  /// Sweeps the signature index and returns the entries whose certified
  /// similarity cap reaches `threshold` (ascending id, like Snapshot()),
  /// plus the sweep accounting. Like a snapshot this is PER-SHARD atomic:
  /// within a shard the index verdicts and the returned entries observe
  /// one consistent state. Requires a configured signature index and a
  /// query signature built with its options.
  struct ProbeResult {
    std::vector<CatalogEntry> candidates;
    PrescreenStats stats;
  };
  ProbeResult ProbeCandidates(const CommunitySignature& query_signature,
                              std::span<const Dim> probe_order, Epsilon eps,
                              double threshold) const;

  /// The signature configuration, or nullptr when prescreening is off.
  const SignatureOptions* signature_options() const {
    return signature_index_ == nullptr ? nullptr
                                       : &signature_index_->options();
  }

  /// The underlying index (nullptr when off). Exposed for tests and
  /// stats; mutating calls remain the catalog's alone.
  const SignatureIndex* signature_index() const {
    return signature_index_.get();
  }

  /// The construction options (the persistence layer reads the warm
  /// parameters and cache pointer to seal and restore derived
  /// artifacts in the exact shape serving expects).
  const Options& options() const { return options_; }

  /// Monotonic operation counters (for the server's stats surface).
  struct Stats {
    uint64_t upserts = 0;
    uint64_t removes = 0;
    uint64_t snapshots = 0;
    uint64_t probes = 0;
    /// Whole index packs dismissed by the pack-level prefilter across
    /// all ProbeCandidates calls (the second filter level's win meter).
    uint64_t prescreen_packs_skipped = 0;
  };
  Stats GetStats() const;

 private:
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::map<uint64_t, CatalogEntry> entries;
  };

  /// The bounded mutation log (see Options::mutation_log_capacity). Its
  /// own mutex rather than a shard's: appends come from every shard, and
  /// readers must see one consistent (records, next_seq) pair without
  /// taking any shard lock. Records are dense: records[i].seq ==
  /// first_seq + i whenever the deque is non-empty.
  struct MutationLog {
    mutable std::mutex mu;
    std::deque<MutationRecord> records;
    uint64_t next_seq = 1;   ///< seq the NEXT append will take
    uint64_t first_seq = 1;  ///< seq of records.front() when non-empty
  };

  uint32_t ShardIndexOf(uint64_t id) const;
  const Shard& ShardOf(uint64_t id) const;
  Shard& ShardOf(uint64_t id);
  /// The one publish step of every effective mutation, run inside the
  /// mutation's exclusive shard section: appends the record to the
  /// journal (which issues its seq) and hands it, with the installed
  /// buffer (null for a remove), to the sink. The journal keeps only the
  /// record, never the buffer.
  void Publish(uint64_t id, uint64_t version,
               const std::shared_ptr<const Community>& community);

  /// The prepare step every install path runs OUTSIDE any lock, in two
  /// stages so BulkLoad can time them as separate waves. Stage one
  /// adopts `pending`'s frozen community (id and version are copied,
  /// callers may still assign the version), digests it unless
  /// `digested`, warms the cache with the adopted-or-built EncodedB and
  /// EncodedA, and carries an adopted sketch over. Stage two builds the
  /// sketch, through the scratch-reusing builder, when none was adopted.
  CatalogEntry PrepareEncodings(RestoredEntry&& pending, bool digested) const;
  void PrepareSketch(CatalogEntry* entry) const;

  /// The per-shard install section every install path shares: under the
  /// shard's exclusive lock, moves `entries[i]` for each i of `members`
  /// (all of shard `shard_index`, in install order) into the entry map
  /// and the signature index, bracketed by one mutation-clock tick.
  /// With `notify`, each install is also published (see Publish).
  void InstallShard(uint32_t shard_index, std::span<CatalogEntry> entries,
                    std::span<const uint32_t> members, bool notify);
  /// Groups `entries` by shard (batch order kept within a shard, so
  /// duplicate ids replay last-wins) and runs InstallShard per shard.
  void InstallByShard(std::span<CatalogEntry> entries, bool notify);

  Options options_;
  std::vector<Shard> shards_;
  /// Sketch store mirroring shards_ one-to-one; every mutation happens
  /// under the matching shard's exclusive lock (see Options::signatures).
  std::unique_ptr<SignatureIndex> signature_index_;
  /// Null when Options::mutation_log_capacity == 0.
  std::unique_ptr<MutationLog> mutation_log_;
  /// The durable-log seam (see SetMutationSink); empty when detached.
  MutationSink mutation_sink_;
  /// Next version to issue; versions are catalog-wide and monotonic.
  std::atomic<uint64_t> next_version_{1};
  /// The mutation clock (see mutations_started()). Bumped around BOTH
  /// mutating entry points so tagged readers detect any concurrent churn.
  std::atomic<uint64_t> mutations_started_{0};
  std::atomic<uint64_t> mutations_finished_{0};
  std::atomic<uint64_t> upserts_{0};
  std::atomic<uint64_t> removes_{0};
  mutable std::atomic<uint64_t> snapshots_{0};
  mutable std::atomic<uint64_t> probes_{0};
  mutable std::atomic<uint64_t> prescreen_packs_skipped_{0};
};

}  // namespace csj::service

#endif  // CSJ_SERVICE_CATALOG_H_
