#ifndef CSJ_MATCHING_MATCHER_H_
#define CSJ_MATCHING_MATCHER_H_

#include <vector>

#include "core/join_result.h"

namespace csj::matching {

/// Which one-to-one matcher an exact CSJ method uses on its collected
/// candidate pairs.
enum class MatcherKind {
  kCsf,          ///< the paper's CoverSmallestFirst heuristic (default)
  kMaxMatching,  ///< Hopcroft-Karp; provably maximum, somewhat slower
};

/// Human-readable matcher name for result labelling.
const char* MatcherName(MatcherKind kind);

/// Dispatches `edges` (original user ids) to the selected matcher.
std::vector<MatchedPair> RunMatcher(MatcherKind kind,
                                    const std::vector<MatchedPair>& edges);

}  // namespace csj::matching

#endif  // CSJ_MATCHING_MATCHER_H_
