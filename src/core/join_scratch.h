#ifndef CSJ_CORE_JOIN_SCRATCH_H_
#define CSJ_CORE_JOIN_SCRATCH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/epsilon_predicate.h"
#include "core/join_result.h"
#include "matching/matcher.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csj {
namespace internal {

/// One chunk's output arena for the intra-join parallel phases: candidate
/// edges plus the chunk's event counters. Aligned to two cache lines so
/// adjacent chunks' vector headers and hot counters (bumped once per
/// examined pair) never share a line — with 8 workers the per-event
/// false-sharing traffic otherwise dominates small joins.
struct alignas(128) ChunkSlot {
  /// Candidate edges in scan order: real ids for the CollectCandidates
  /// callers, sorted-buffer indices for Ex-MinMax's segment replay.
  std::vector<MatchedPair> edges;
  JoinStats stats;
};

/// Reusable pool of ChunkSlots owned by the SUBMITTING thread's scratch:
/// a join acquires one span per parallel phase, workers fill disjoint
/// slots, and the join merges them in chunk order. Capacity (outer and
/// per-slot) survives across joins, so repeated joins stop allocating
/// their chunk bookkeeping — the per-couple allocator churn that showed
/// up as cross-couple scaling loss.
class ChunkArenas {
 public:
  /// Slots [0, chunks), cleared (capacity retained). The span is valid
  /// until the next Acquire on the same thread; a join must finish its
  /// merge before this thread starts another parallel phase.
  std::span<ChunkSlot> Acquire(uint32_t chunks) {
    if (slots_.size() < chunks) slots_.resize(chunks);
    for (uint32_t c = 0; c < chunks; ++c) {
      slots_[c].edges.clear();
      slots_[c].stats = JoinStats{};
    }
    last_chunks_ = chunks;
    return {slots_.data(), chunks};
  }

  /// Chunk count of the latest Acquire: how finely this thread's last
  /// scan was cut (the tests read it to see the multi-chunk path run).
  uint32_t last_chunks() const { return last_chunks_; }

 private:
  std::vector<ChunkSlot> slots_;
  uint32_t last_chunks_ = 0;
};

/// Reusable per-thread temporaries for the join hot paths.
///
/// Every join method executes on exactly one thread (the pipeline's
/// cross-couple parallelism hands each couple to one worker; an
/// intra-join chunk body writes its own ChunkSlot and touches only the
/// EXECUTING thread's scan temporaries, `survivors` and `mask`), so a
/// thread_local instance is race-free and lets repeated joins reuse
/// capacity instead of re-allocating their bookkeeping vectors on every
/// call — the dominant constant cost when screening thousands of small
/// couples.
///
/// Discipline: a field is borrowed for the duration of ONE join and must
/// not be live across a nested use of the same field. Each join method
/// touches a disjoint set of fields at any moment (used/matched flags,
/// the candidate-edge buffers, the encoder temporaries), which keeps the
/// sharing safe even when a join builds encoders mid-flight.
struct JoinScratch {
  /// A-side / B-side "already matched" flags (uint8_t, not vector<bool>:
  /// byte stores are cheaper than bit RMW in the scan inner loops).
  std::vector<uint8_t> used_a;
  std::vector<uint8_t> matched_b;

  /// Ex-MinMax's open segment and the exact methods' merged candidate
  /// edge list (cleared per join, capacity retained).
  std::vector<MatchedPair> segment;
  std::vector<MatchedPair> candidates;

  /// Encoder temporaries: per-user part sums / range endpoints and the
  /// sort keys + permutation used to order encoded buffers.
  std::vector<uint64_t> sums;
  std::vector<uint64_t> lo;
  std::vector<uint64_t> hi;
  std::vector<uint64_t> keys;
  std::vector<uint32_t> perm;

  /// Cache-less batched verification: SoA windows repacked per join (the
  /// cached paths use the windows attached to the cached buffers instead)
  /// and the survivor bitmask of full-range Many calls.
  VerifyWindow window;
  VerifyWindowF window_f;
  std::vector<uint64_t> mask;

  /// Candidate indices that survived the MinMax prescreen of one probe
  /// and still need the d-dimensional comparison.
  std::vector<uint32_t> survivors;

  /// Per-chunk output arenas of this thread's intra-join parallel phases
  /// (the chunks themselves may execute on pool workers; only the slots
  /// live here, and each worker touches exactly one).
  ChunkArenas chunk_arenas;
};

/// The calling thread's scratch. Never hold the reference across a point
/// where the same thread may start another join (e.g. across a nested
/// RunMethod call) while still using a field the other join also uses.
inline JoinScratch& GetJoinScratch() {
  thread_local JoinScratch scratch;
  return scratch;
}

/// What one index of a ScanChunks range stands for. The unit sets how
/// much work a chunk must carry to be worth a pool hand-off.
enum class ScanUnit : uint8_t {
  kProbeRow,  ///< one B row probing A (Ex-MinMax, Ex-Baseline)
  kEgoLeaf,   ///< one surviving EGO leaf pair (Ex-SuperEGO, Ex-MinMaxEGO)
};

/// Fewest units one chunk of a multi-chunk scan holds. A scan with less
/// than twice this much work runs as one inline chunk: a pool hand-off
/// costs more than the rows it would move. A leaf pair is up to
/// superego_threshold^2 compares, so it weighs far more than a probe row.
constexpr uint32_t MinUnitsPerChunk(ScanUnit unit) {
  return unit == ScanUnit::kProbeRow ? 64 : 4;
}

/// Most chunks a scan cuts per thread it may use. More chunks than threads
/// let the pool's dynamic claiming even out skewed probe costs.
inline constexpr uint32_t kChunksPerThread = 8;

/// Chunks a scan of `n` units at up to `threads` threads uses: 0 for an
/// empty range, 1 when `threads <= 1` or the work is below the floor,
/// else n / MinUnitsPerChunk(unit) capped at threads * kChunksPerThread.
/// A function of its arguments only, never of the executing pool.
inline uint32_t ScanChunkCount(uint32_t n, uint32_t threads, ScanUnit unit) {
  if (n == 0) return 0;
  if (threads <= 1) return 1;
  const uint64_t cap = uint64_t{threads} * kChunksPerThread;
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(n / MinUnitsPerChunk(unit), 1, cap));
}

/// The exact joins' candidate scan: runs `body(begin, end, slot)` over
/// ScanChunkCount(n, threads, unit) contiguous, near-equal chunks of
/// [0, n), each filling its own slot of the calling thread's ChunkArenas.
/// One chunk runs inline on the caller with no pool interaction. More
/// chunks are claimed dynamically by at most `threads` threads of `pool`
/// (null = ThreadPool::Global()); from inside a pool task they run inline.
/// The partition depends only on (n, threads, unit), so a merge that walks
/// the returned slots in chunk order sees the serial scan's output.
template <typename Body>
std::span<ChunkSlot> ScanChunks(uint32_t n, uint32_t threads, ScanUnit unit,
                                util::ThreadPool* pool, const Body& body) {
  const uint32_t chunks = ScanChunkCount(n, threads, unit);
  const std::span<ChunkSlot> slots =
      GetJoinScratch().chunk_arenas.Acquire(chunks);
  if (chunks == 1) {
    body(0, n, &slots[0]);
  } else if (chunks > 1) {
    const auto bound = [&](uint32_t c) {
      return static_cast<uint32_t>(uint64_t{n} * c / chunks);
    };
    util::ThreadPool& executor =
        pool != nullptr ? *pool : util::ThreadPool::Global();
    executor.Run(
        chunks,
        [&](uint32_t c) { body(bound(c), bound(c + 1), &slots[c]); },
        threads);
  }
  return slots;
}

/// ScanChunks, then the chunk-order merge: slot counters sum into
/// `stats` and slot edges concatenate into the calling thread's candidate
/// buffer, which is returned (valid until this thread's next join).
template <typename Body>
const std::vector<MatchedPair>& CollectCandidates(uint32_t n, uint32_t threads,
                                                  ScanUnit unit,
                                                  util::ThreadPool* pool,
                                                  const Body& body,
                                                  JoinStats* stats) {
  std::vector<MatchedPair>& candidates = GetJoinScratch().candidates;
  candidates.clear();
  for (const ChunkSlot& slot : ScanChunks(n, threads, unit, pool, body)) {
    stats->Merge(slot.stats);
    candidates.insert(candidates.end(), slot.edges.begin(), slot.edges.end());
  }
  return candidates;
}

/// The exact joins' verify step: hands one candidate list to the
/// configured one-to-one matcher, counts its candidates, one CSF flush
/// and the matching time, and appends the matched pairs to
/// `result->pairs`.
inline void MatchCandidates(matching::MatcherKind matcher,
                            const std::vector<MatchedPair>& candidates,
                            JoinResult* result) {
  result->stats.candidate_pairs += candidates.size();
  ++result->stats.csf_flushes;
  const util::Timer timer;
  std::vector<MatchedPair> matched = matching::RunMatcher(matcher, candidates);
  result->stats.matching_seconds += timer.Seconds();
  if (result->pairs.empty()) {
    result->pairs = std::move(matched);
  } else {
    result->pairs.insert(result->pairs.end(), matched.begin(), matched.end());
  }
}

/// Walks the survivor bitmask of one full-run EpsilonMatchesMany call
/// over `run` candidates: tallies the verdicts into `stats` by popcount
/// and calls `emit(offset)` for each survivor in ascending offset order
/// (the per-pair scan's pair order).
template <typename Emit>
void WalkRunMask(const uint64_t* mask, uint32_t run, JoinStats* stats,
                 const Emit& emit) {
  uint64_t found = 0;
  for (uint32_t w = 0; w < (run + 63) / 64; ++w) {
    uint64_t word = mask[w];
    found += static_cast<uint64_t>(std::popcount(word));
    while (word != 0) {
      emit(w * 64 + static_cast<uint32_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
  stats->matches += found;
  stats->no_matches += run - found;
  stats->dimension_compares += run;
}

}  // namespace internal
}  // namespace csj

#endif  // CSJ_CORE_JOIN_SCRATCH_H_
