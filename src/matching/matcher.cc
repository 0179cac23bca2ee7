#include "matching/matcher.h"

#include "matching/csf.h"
#include "matching/hopcroft_karp.h"

namespace csj::matching {

const char* MatcherName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kCsf: return "CSF";
    case MatcherKind::kMaxMatching: return "HopcroftKarp";
  }
  return "UNKNOWN";
}

std::vector<MatchedPair> RunMatcher(MatcherKind kind,
                                    const std::vector<MatchedPair>& edges) {
  switch (kind) {
    case MatcherKind::kCsf: return CoverSmallestFirst(edges);
    case MatcherKind::kMaxMatching: return HopcroftKarp(edges);
  }
  return {};
}

}  // namespace csj::matching
