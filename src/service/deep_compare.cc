#include "service/deep_compare.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/signature.h"

namespace csj::service {

bool CatalogsIdentical(const CommunityCatalog& lhs,
                       const CommunityCatalog& rhs, Epsilon eps,
                       double threshold) {
  const std::vector<CatalogEntry> lhs_snapshot = lhs.Snapshot();
  const std::vector<CatalogEntry> rhs_snapshot = rhs.Snapshot();
  if (lhs_snapshot.size() != rhs_snapshot.size()) return false;
  for (size_t i = 0; i < lhs_snapshot.size(); ++i) {
    const CatalogEntry& a = lhs_snapshot[i];
    const CatalogEntry& b = rhs_snapshot[i];
    if (a.id != b.id || a.version != b.version ||
        a.digest.fingerprint != b.digest.fingerprint ||
        a.digest.max_counter != b.digest.max_counter) {
      return false;
    }
    if (a.community->d() != b.community->d() ||
        a.community->size() != b.community->size()) {
      return false;
    }
    const auto a_flat = a.community->flat();
    const auto b_flat = b.community->flat();
    if (!std::equal(a_flat.begin(), a_flat.end(), b_flat.begin(),
                    b_flat.end())) {
      return false;
    }
    if ((a.signature == nullptr) != (b.signature == nullptr)) return false;
    if (a.signature != nullptr) {
      const auto a_table = a.signature->table();
      const auto b_table = b.signature->table();
      if (!std::equal(a_table.begin(), a_table.end(), b_table.begin(),
                      b_table.end())) {
        return false;
      }
    }
  }
  const SignatureIndex* lhs_index = lhs.signature_index();
  const SignatureIndex* rhs_index = rhs.signature_index();
  if ((lhs_index == nullptr) != (rhs_index == nullptr)) return false;
  if (lhs_index == nullptr || lhs_snapshot.empty()) return true;
  if (lhs_index->shards() != rhs_index->shards()) return false;
  for (uint32_t q = 0; q < 3; ++q) {
    const CatalogEntry& query_entry =
        lhs_snapshot[(static_cast<size_t>(q) * lhs_snapshot.size()) / 3];
    const CommunitySignature query_sig(*query_entry.community,
                                       lhs_index->options());
    const std::vector<Dim> order = SignatureProbeOrder(query_sig);
    for (const double tau : {0.0, threshold}) {
      SignatureIndex::ProbeQuery probe;
      probe.signature = &query_sig;
      probe.eps = eps;
      probe.threshold = tau;
      probe.probe_order = order;
      for (uint32_t shard = 0; shard < lhs_index->shards(); ++shard) {
        std::vector<PrescreenCandidate> lhs_out, rhs_out;
        PrescreenStats lhs_stats, rhs_stats;
        lhs_index->ProbeShard(shard, probe, &lhs_out, &lhs_stats);
        rhs_index->ProbeShard(shard, probe, &rhs_out, &rhs_stats);
        if (lhs_out.size() != rhs_out.size()) return false;
        // Emission order follows within-shard slot order, which is an
        // insertion-history artifact (replaces and swap-removes permute
        // it); a checkpoint canonicalizes slots to ascending id. The
        // serving contract is the candidate SET, so compare it as one.
        const auto by_id = [](const PrescreenCandidate& a,
                              const PrescreenCandidate& b) {
          return a.id < b.id;
        };
        std::sort(lhs_out.begin(), lhs_out.end(), by_id);
        std::sort(rhs_out.begin(), rhs_out.end(), by_id);
        for (size_t i = 0; i < lhs_out.size(); ++i) {
          if (lhs_out[i].id != rhs_out[i].id ||
              lhs_out[i].version != rhs_out[i].version) {
            return false;
          }
        }
        // Per-entry verdict counts are layout-invariant and must agree
        // exactly. packs_skipped is NOT compared: like slot order above
        // it is a pack-grouping artifact of insertion history — a
        // catalog restored from a sealed segment groups canonically
        // (ascending id) while the live one groups by mutation order,
        // so whole-pack skips can split differently even though every
        // per-entry outcome is identical.
        if (lhs_stats.examined != rhs_stats.examined ||
            lhs_stats.passed != rhs_stats.passed ||
            lhs_stats.skipped_cap != rhs_stats.skipped_cap ||
            lhs_stats.skipped_inadmissible != rhs_stats.skipped_inadmissible ||
            lhs_stats.skipped_dim != rhs_stats.skipped_dim) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace csj::service
