#ifndef CSJ_SERVICE_TOPK_H_
#define CSJ_SERVICE_TOPK_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/community.h"
#include "core/join_options.h"
#include "core/method.h"
#include "service/catalog.h"

namespace csj::util {
class ThreadPool;
}  // namespace csj::util

namespace csj::service {

/// Deadline for one request, as a steady-clock point. Checked BETWEEN
/// phases (never inside a join): admission -> bound phase -> each refine
/// batch. A request that blows its deadline returns what it has, flagged.
using Deadline = std::chrono::steady_clock::time_point;

struct TopKOptions {
  /// Result size; clamped to >= 1.
  uint32_t k = 10;

  /// Exact method used to refine survivors (the cutoff proof needs
  /// exactness: approximate similarities are not dominated by the bound).
  Method method = Method::kExMinMax;

  /// Join parameters (eps, parts, matcher, cache...). Point `join.cache`
  /// at the catalog's warmup cache to serve from prebuilt encodings.
  JoinOptions join;

  /// The best-bound-first cutoff walk. false refines every admissible
  /// entry — the exhaustive oracle arm the differential test compares
  /// against; results are identical either way, only work differs.
  bool use_bound_cutoff = true;

  /// Threads applied WITHIN this query (bound phase + each refine wave).
  /// 1 = fully inline, no pool interaction — a server running many
  /// concurrent requests gets its parallelism across requests instead.
  /// The applied count (capped by the pool) is also the number of exact
  /// joins per refine wave: within a wave, joins run as pool tasks in
  /// cost-aware (most-expensive-first) order; between waves the cutoff
  /// re-checks. A serial query is the classic one-at-a-time walk with
  /// the tightest possible cutoff; results never change.
  uint32_t query_threads = 1;

  /// Pool override; null = ThreadPool::Global().
  util::ThreadPool* pool = nullptr;

  /// Sub-linear candidate generation: sketch the query, sweep the
  /// catalog's SignatureIndex, and feed ONLY the entries whose certified
  /// similarity cap reaches `prescreen_threshold` into the bound+refine
  /// walk above. Results stay byte-identical to the exhaustive scan (see
  /// the fallback contract in docs/API.md): skipped entries are PROVEN
  /// below the threshold, and whenever the refined candidates cannot
  /// certify a full top-k (fewer than k results, or a k-th similarity
  /// below the threshold) the query transparently falls back to the
  /// exhaustive scan. Inert — silently a plain scan — when the catalog
  /// has no signature index or the query is empty.
  bool prescreen = false;

  /// The prescreen admission threshold tau. Larger values skip more of
  /// the catalog but fall back whenever the true k-th similarity lands
  /// below tau; <= 0 admits every entry (prescreen does nothing but add
  /// sweep overhead). 0.10 suits the serving workload's "related
  /// community" regime.
  double prescreen_threshold = 0.10;
};

/// One ranked result: a catalog entry and its EXACT similarity to the
/// query under the auto-ordered couple (smaller side plays B).
struct TopKEntry {
  uint64_t id = 0;
  uint64_t version = 0;
  double similarity = 0.0;

  friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

struct TopKQueryStats {
  /// Entries the query was answered against: the snapshot size, or, for
  /// a prescreen query, the index slots examined by the sweep (the whole
  /// resident catalog). After a fallback: the fallback snapshot size.
  uint32_t catalog_entries = 0;
  uint32_t admissible = 0;  ///< couples passing the CSJ size rule
  uint32_t inadmissible = 0;
  uint32_t refined = 0;        ///< exact joins actually executed
  uint32_t bound_skipped = 0;  ///< admissible entries the cutoff pruned
  uint32_t waves = 0;          ///< refine waves executed
  double bound_seconds = 0.0;  ///< wall-clock of the bound phase
  double refine_seconds = 0.0; ///< wall-clock of all refine waves

  /// Prescreen accounting (all zero for scan-mode queries). Invariants
  /// for a prescreen query: prescreen_probed + prescreen_skipped ==
  /// slots examined, and (before any fallback) admissible + inadmissible
  /// == prescreen_probed — the exact phases only ever saw the probed
  /// candidates.
  uint32_t prescreen_probed = 0;   ///< entries admitted to the exact path
  uint32_t prescreen_skipped = 0;  ///< entries the sweep certified away
  /// Whole index packs the sweep dismissed from their coarse summaries
  /// alone (their slots are part of prescreen_skipped).
  uint32_t prescreen_packs_skipped = 0;
  uint32_t fallback = 0;           ///< 1 when the exhaustive fallback ran
  double prescreen_seconds = 0.0;  ///< query sketch + index sweep wall
};

struct TopKResult {
  /// At most k entries, ranked by (similarity desc, id asc) — the total
  /// order the cutoff proof and the differential test are stated in.
  std::vector<TopKEntry> entries;
  TopKQueryStats stats;
  /// The deadline expired between phases; `entries` ranks only what was
  /// refined so far (a valid lower-bound answer, not the exact top-k).
  bool deadline_expired = false;
};

/// The catalog-backed top-k similarity query engine.
///
/// Algorithm (QuerySnapshot): for every snapshot entry, orient the couple
/// by size (smaller side plays B, query wins ties) and drop inadmissible
/// couples; compute SimilarityUpperBound for every admissible couple
/// (batched on the pool); walk candidates in (bound desc, id asc) order,
/// refining in waves and maintaining the current top-k; STOP as soon as
/// the next candidate's bound is strictly below the current k-th
/// similarity with the top-k full.
///
/// Cutoff correctness (the "provably identical" contract): for an exact
/// method, similarity(B, A) <= SimilarityUpperBound(B, A) on the same
/// couple — the bound is the optimum of a relaxation (encoded-window
/// interval matching) of the real candidate graph, and both are divided
/// by the same |B|. Candidates are walked in non-increasing bound order,
/// so when the walk stops at a candidate with bound < kth_similarity,
/// every unrefined candidate c satisfies
///     similarity(c) <= bound(c) <= bound(stop) < kth_similarity,
/// i.e. c ranks strictly below k refined entries under (similarity desc,
/// id asc) and cannot appear in the top-k. Ties are why the stop rule is
/// STRICT: a candidate with bound == kth_similarity could still realize
/// exactly kth_similarity and win the tie on a smaller id, so it must be
/// refined. Hence the returned ranking is byte-identical — same (id,
/// version, similarity) triples, same double bits — to refining every
/// admissible entry and truncating (topk_service_test proves this on
/// hundreds of seeded catalogs).
class TopKSimilarService {
 public:
  /// `catalog` is not owned and must outlive the service.
  explicit TopKSimilarService(const CommunityCatalog* catalog);

  /// Snapshots the catalog and runs QuerySnapshot — or, with
  /// TopKOptions::prescreen on a signature-indexed catalog, probes the
  /// index and runs the same walk on the candidates only (exhaustive
  /// fallback when the candidates cannot certify a full top-k).
  TopKResult Query(const Community& query, const TopKOptions& options,
                   const std::optional<Deadline>& deadline = {}) const;

  /// Runs the query against an explicit snapshot (the server reuses one
  /// snapshot across phases of a request; tests pin synthetic ones).
  TopKResult QuerySnapshot(const Community& query,
                           const std::vector<CatalogEntry>& snapshot,
                           const TopKOptions& options,
                           const std::optional<Deadline>& deadline = {}) const;

 private:
  TopKResult QueryPrescreen(const Community& query,
                            const TopKOptions& options,
                            const std::optional<Deadline>& deadline) const;

  const CommunityCatalog* catalog_;
};

}  // namespace csj::service

#endif  // CSJ_SERVICE_TOPK_H_
