// Per-layer measurement from outside the program: every number here comes
// from timing a call into a public function of net, service, core,
// matching, persist or evolve, or from the accounting those calls return.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>

#include "bench.h"
#include "core/method.h"
#include "core/signature.h"
#include "core/similarity_bound.h"
#include "net/net_client.h"
#include "persist/log.h"
#include "persist/store.h"
#include "service/deep_compare.h"

namespace csjbench {

namespace {

/// Request ids of the replayed queries (disjoint from the loops' ids).
constexpr uint64_t kReplayRequestBase = uint64_t{1} << 40;

/// Totals of the layer replay, over all replayed queries.
struct LayerTotals {
  double prescreen_s = 0.0;
  double bound_s = 0.0;
  double refine_s = 0.0;    ///< RunMethod wall time, matcher included
  double matching_s = 0.0;  ///< JoinStats::matching_seconds
  uint64_t examined = 0;
  uint64_t probed = 0;
  uint64_t packs_skipped = 0;
  uint64_t admissible = 0;
  uint64_t refined = 0;
  uint64_t bound_skipped = 0;
  uint64_t candidate_pairs = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// The top-k order: similarity descending, id ascending.
struct RankedLess {
  bool operator()(const csj::service::TopKEntry& x,
                  const csj::service::TopKEntry& y) const {
    if (x.similarity != y.similarity) return x.similarity > y.similarity;
    return x.id < y.id;
  }
};

/// The bound phase and the serial refine walk over `snapshot`, one public
/// call at a time: SimilarityUpperBounds for the bounds, RunMethod for
/// each exact join, stopping at the strict best-bound-first cutoff.
std::vector<csj::service::TopKEntry> Walk(
    const csj::Community& query,
    const std::vector<csj::service::CatalogEntry>& snapshot,
    const csj::service::TopKOptions& options, LayerTotals* totals) {
  std::vector<uint32_t> slots;
  std::vector<std::pair<const csj::Community*, const csj::Community*>> couples;
  std::vector<double> bounds;
  std::vector<uint32_t> order;
  {
    const Span span("core.bound");
    const Clock::time_point start = Clock::now();
    for (uint32_t i = 0; i < snapshot.size(); ++i) {
      const csj::Community& entry = *snapshot[i].community;
      if (entry.d() != query.d()) continue;
      const bool query_is_b = query.size() <= entry.size();
      const csj::Community* b = query_is_b ? &query : &entry;
      const csj::Community* a = query_is_b ? &entry : &query;
      if (!csj::SizesAdmissible(b->size(), a->size())) continue;
      slots.push_back(i);
      couples.emplace_back(b, a);
    }
    bounds = csj::SimilarityUpperBounds(couples, options.join.eps);
    order.resize(couples.size());
    for (uint32_t c = 0; c < order.size(); ++c) order[c] = c;
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      if (bounds[x] != bounds[y]) return bounds[x] > bounds[y];
      return snapshot[slots[x]].id < snapshot[slots[y]].id;
    });
    totals->bound_s += MsSince(start) / 1e3;
  }
  totals->admissible += couples.size();

  const uint32_t k = std::max(options.k, 1u);
  std::set<csj::service::TopKEntry, RankedLess> best;
  size_t next = 0;
  for (; next < order.size(); ++next) {
    const uint32_t c = order[next];
    if (options.use_bound_cutoff && best.size() >= k &&
        bounds[c] < std::prev(best.end())->similarity) {
      break;
    }
    csj::JoinResult joined;
    {
      const Span span("core.refine");
      const Clock::time_point start = Clock::now();
      joined = csj::RunMethod(options.method, *couples[c].first,
                              *couples[c].second, options.join);
      totals->refine_s += MsSince(start) / 1e3;
    }
    totals->matching_s += joined.stats.matching_seconds;
    totals->candidate_pairs += joined.stats.candidate_pairs;
    totals->cache_hits += joined.stats.cache_hits;
    totals->cache_misses += joined.stats.cache_misses;
    const csj::service::CatalogEntry& entry = snapshot[slots[c]];
    best.insert(csj::service::TopKEntry{entry.id, entry.version,
                                        joined.Similarity()});
    if (best.size() > k) best.erase(std::prev(best.end()));
    ++totals->refined;
  }
  totals->bound_skipped += order.size() - next;
  return {best.begin(), best.end()};
}

/// (shard, d, home dimension) pack keys an index over `snapshot` holds at
/// most: every shard can hold a pack per distinct (d, home) pair.
uint64_t PackKeys(const std::vector<csj::service::CatalogEntry>& snapshot,
                  uint32_t shards) {
  std::set<std::pair<csj::Dim, csj::Dim>> keys;
  for (const auto& entry : snapshot) {
    if (entry.signature != nullptr) {
      keys.emplace(entry.signature->d(),
                   csj::SignatureHomeDim(*entry.signature));
    }
  }
  return keys.size() * shards;
}

}  // namespace

void Served::StartNet() {
  csj::net::NetServer::Options options;
  options.topk_template = topk;
  net = std::make_unique<csj::net::NetServer>(server.get(), options);
}

void Served::Stop() {
  if (net != nullptr) net->Shutdown();
  if (server != nullptr) server->Shutdown();
}

void ReplayLayers(const Served& served,
                  const std::vector<std::shared_ptr<const csj::Community>>&
                      queries,
                  Report* report) {
  const csj::service::CommunityCatalog& catalog = served.server->catalog();
  const csj::service::TopKSimilarService& service = served.server->topk();
  const csj::service::TopKOptions& options = served.topk;

  // The prescreen layer is timed on every workload. A catalog served
  // without a signature index gets an indexed copy for the sweep alone;
  // its queries still refine the full snapshot, as served.
  std::unique_ptr<csj::EncodingCache> copy_cache;
  std::unique_ptr<csj::service::CommunityCatalog> indexed_copy;
  const csj::service::CommunityCatalog* indexed = &catalog;
  if (catalog.signature_options() == nullptr) {
    copy_cache = std::make_unique<csj::EncodingCache>();
    csj::service::CommunityCatalog::Options copy_options = catalog.options();
    copy_options.cache = copy_cache.get();
    copy_options.signatures = csj::SignatureOptions{};
    copy_options.mutation_log_capacity = 0;
    indexed_copy =
        std::make_unique<csj::service::CommunityCatalog>(copy_options);
    std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>
        batch;
    for (const auto& entry : catalog.Snapshot()) {
      batch.emplace_back(entry.id, entry.community);
    }
    indexed_copy->BulkLoad(std::move(batch));
    indexed = indexed_copy.get();
  }
  const uint64_t pack_keys =
      PackKeys(indexed->Snapshot(), indexed->signature_index()->shards());

  // Each query is timed kReps times each way, alternating which runs
  // first; the fastest of each side is kept, so a stall of the host during
  // one call cannot break the reconciliation.
  constexpr int kReps = 3;
  LayerTotals totals;
  std::vector<double> direct_ms;
  std::vector<double> errors;
  for (size_t q = 0; q < queries.size(); ++q) {
    const csj::Community& query = *queries[q];
    double best_direct_ms = 0.0;
    double best_layer_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const uint64_t request =
          kReplayRequestBase + q * kReps + static_cast<uint64_t>(rep) + 1;
      csj::service::TopKResult direct;
      double rep_direct_ms = 0.0;
      const auto time_direct = [&] {
        const Span span("service.topk", request);
        const Clock::time_point start = Clock::now();
        direct = service.Query(query, options);
        rep_direct_ms = MsSince(start);
      };
      if (rep % 2 == 0) time_direct();

      std::vector<csj::service::TopKEntry> replayed;
      {
        const Span root("replay.topk", request);
        csj::service::CommunityCatalog::ProbeResult probe;
        {
          const Span span("core.prescreen");
          const Clock::time_point start = Clock::now();
          const csj::CommunitySignature signature(
              query, *indexed->signature_options());
          const std::vector<csj::Dim> probe_order =
              csj::SignatureProbeOrder(signature);
          probe = indexed->ProbeCandidates(signature, probe_order,
                                           options.join.eps,
                                           options.prescreen_threshold);
          totals.prescreen_s += MsSince(start) / 1e3;
        }
        totals.examined += probe.stats.examined;
        totals.probed += probe.stats.passed;
        totals.packs_skipped += probe.stats.packs_skipped;

        const bool screened = options.prescreen && indexed == &catalog;
        const uint32_t k = std::max(options.k, 1u);
        if (screened) {
          replayed = Walk(query, probe.candidates, options, &totals);
        }
        const bool certified =
            screened &&
            ((replayed.size() >= k &&
              replayed.back().similarity >= options.prescreen_threshold) ||
             probe.stats.passed == probe.stats.examined);
        if (!certified) {
          std::vector<csj::service::CatalogEntry> snapshot;
          {
            const Span span("service.snapshot");
            snapshot = catalog.Snapshot();
          }
          replayed = Walk(query, snapshot, options, &totals);
        }
      }
      if (rep % 2 == 1) time_direct();

      report->Attempt();
      if (!SameRanking(replayed, direct.entries)) {
        report->Fail("layer replay ranking differs from TopKSimilarService");
      }
      // The replay's layer self times: every span under the replay root,
      // the root's own glue included.
      double layer_ms = 0.0;
      for (const Tracer::SelfTime& self : Tracer::SelfTimes(request, request)) {
        if (self.name != "service.topk") layer_ms += self.seconds * 1e3;
      }
      if (rep == 0 || rep_direct_ms < best_direct_ms) {
        best_direct_ms = rep_direct_ms;
      }
      if (rep == 0 || layer_ms < best_layer_ms) best_layer_ms = layer_ms;
    }
    direct_ms.push_back(best_direct_ms);
    errors.push_back(best_direct_ms > 0.0
                         ? std::abs(best_layer_ms - best_direct_ms) /
                               best_direct_ms
                         : 0.0);
  }

  const double n = std::max<double>(
      1.0, static_cast<double>(queries.size() * kReps));
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  report->Layer("service.topk_ms", Quantile(direct_ms, 0.5), "ms");
  report->Layer("core.prescreen_ms", totals.prescreen_s * 1e3 / n, "ms");
  report->Layer("core.prescreen_probed_frac",
                ratio(totals.probed, totals.examined), "ratio");
  report->Layer("core.prescreen_packs_skipped_frac",
                ratio(totals.packs_skipped,
                      pack_keys * static_cast<uint64_t>(queries.size())),
                "ratio");
  report->Layer("core.bound_ms", totals.bound_s * 1e3 / n, "ms");
  report->Layer("core.bound_pruned_frac",
                ratio(totals.bound_skipped, totals.admissible), "ratio");
  report->Layer("core.refine_ms", totals.refine_s * 1e3 / n, "ms");
  report->Layer("core.refine_joins", static_cast<double>(totals.refined) / n,
                "count");
  report->Layer("core.refined_per_admissible",
                ratio(totals.refined, totals.admissible), "ratio");
  report->Layer("core.encoding_cache_hit_rate",
                ratio(totals.cache_hits, totals.cache_hits + totals.cache_misses),
                "ratio");
  report->Layer("core.encoding_cache_bytes",
                static_cast<double>(served.cache->GetStats().bytes), "bytes");
  report->Layer("matching.csf_ms", totals.matching_s * 1e3 / n, "ms");
  report->Layer("matching.candidate_pairs_per_join",
                ratio(totals.candidate_pairs, totals.refined), "count");

  // Reconciliation: per query, the replay's summed layer self times
  // against the directly timed TopKSimilarService::Query; the median gap
  // over the replayed queries is gated.
  for (const Tracer::SelfTime& self :
       Tracer::SelfTimes(kReplayRequestBase + 1,
                         kReplayRequestBase + queries.size() * kReps)) {
    report->Detail("self_ms." + self.name, self.seconds * 1e3 / n);
  }
  const double error = Quantile(errors, 0.5);
  report->Layer("trace.reconcile_err_frac", error, "ratio");
  report->Detail("trace.reconcile_tolerance", kReconcileTolerance);
  report->Attempt();
  if (error > kReconcileTolerance) {
    report->Fail("layer self times do not reconcile with the direct query: "
                 "median gap " + std::to_string(error));
  }
}

void MeasureNet(Served* served, const std::vector<Outcome>& sample_outcomes,
                const std::vector<Scheduled>& sample_requests,
                Report* report) {
  // Codec: the run's own request and response payloads through
  // EncodeRequestFrame, EncodeResponseFrame and FrameDecoder.
  constexpr int kCodecRounds = 20;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  double codec_seconds = 0.0;
  uint64_t rounds = 0;
  const size_t n = std::min(sample_outcomes.size(), sample_requests.size());
  for (size_t i = 0; i < n; ++i) {
    const Span span("net.codec");
    for (int r = 0; r < kCodecRounds; ++r) {
      const Clock::time_point start = Clock::now();
      std::vector<uint8_t> request_frame;
      csj::net::EncodeRequestFrame(1, sample_requests[i].request,
                                   &request_frame);
      std::vector<uint8_t> response_frame;
      csj::net::EncodeResponseFrame(1, sample_outcomes[i].response,
                                    &response_frame);
      csj::net::FrameDecoder decoder;
      decoder.Feed(request_frame.data(), request_frame.size());
      decoder.Feed(response_frame.data(), response_frame.size());
      csj::net::DecodedFrame request_decoded;
      csj::net::DecodedFrame response_decoded;
      const bool ok =
          decoder.Next(&request_decoded) == csj::net::WireStatus::kOk &&
          decoder.Next(&response_decoded) == csj::net::WireStatus::kOk;
      codec_seconds += MsSince(start) / 1e3;
      ++rounds;
      if (r == 0) {
        request_bytes += static_cast<double>(request_frame.size());
        response_bytes += static_cast<double>(response_frame.size());
        report->Attempt();
        if (!ok || !SameRanking(response_decoded.response.entries,
                                sample_outcomes[i].response.entries)) {
          report->Fail("wire codec round trip changed a response");
        }
      }
    }
  }
  const double samples = std::max<double>(1.0, static_cast<double>(n));
  report->Layer("net.request_bytes", request_bytes / samples, "bytes");
  report->Layer("net.response_bytes", response_bytes / samples, "bytes");
  report->Layer("net.codec_us",
                rounds == 0 ? 0.0 : codec_seconds * 1e6 /
                                        static_cast<double>(rounds),
                "us");

  // Overhead: the same top-k request in process (CsjServer::SubmitAndWait)
  // and over loopback (NetClient::Call), after one untimed warm-up call,
  // in alternating order so neither side always runs on the other's warm
  // caches; per request the fastest loopback call minus the fastest
  // in-process one (the minimum keeps a 100 ms query's own noise out of a
  // sub-millisecond difference). Up to 4 sampled top-k requests.
  auto client = csj::net::NetClient::Connect("127.0.0.1", served->net->port());
  std::vector<double> overheads;
  constexpr int kOverheadRounds = 4;
  constexpr size_t kOverheadRequests = 4;
  for (size_t i = 0; i < sample_requests.size() && client != nullptr &&
                     overheads.size() < kOverheadRequests;
       ++i) {
    const csj::net::WireRequest& wire = sample_requests[i].request;
    if (wire.kind != csj::service::RequestKind::kTopK) continue;
    csj::service::ServeRequest request;
    request.kind = wire.kind;
    request.community = wire.community;
    request.topk = served->topk;
    request.topk.k = wire.k;
    request.topk.join.eps = wire.eps;
    request.topk.method = wire.method;
    request.topk.prescreen = wire.prescreen;
    request.topk.use_bound_cutoff = wire.use_bound_cutoff;
    request.topk.prescreen_threshold = wire.prescreen_threshold;
    const auto local = [&] {
      const Span span("service.submit");
      const Clock::time_point start = Clock::now();
      const csj::service::ServeResponse response =
          served->server->SubmitAndWait(request);
      const double ms = MsSince(start);
      report->Attempt();
      if (response.status != csj::service::ServeStatus::kOk) {
        report->Fail("in-process overhead probe request failed");
      }
      return ms;
    };
    const auto remote = [&] {
      const Span span("net.call");
      const Clock::time_point start = Clock::now();
      csj::net::WireResponse response;
      const bool ok = client->Call(wire, &response);
      const double ms = MsSince(start);
      report->Attempt();
      if (!ok || response.status != csj::service::ServeStatus::kOk) {
        report->Fail("loopback overhead probe request failed");
      }
      return ms;
    };
    local();  // warm-up
    std::vector<double> local_ms;
    std::vector<double> remote_ms;
    for (int r = 0; r < kOverheadRounds; ++r) {
      if (r % 2 == 0) {
        local_ms.push_back(local());
        remote_ms.push_back(remote());
      } else {
        remote_ms.push_back(remote());
        local_ms.push_back(local());
      }
    }
    overheads.push_back(Quantile(remote_ms, 0.0) - Quantile(local_ms, 0.0));
  }
  report->Layer("net.overhead_ms", Quantile(overheads, 0.5), "ms");
}

void ReportServiceCounters(const Served& served, const LoopResult& loop,
                           Report* report) {
  std::vector<double> queue_ms;
  for (const auto& outcomes : loop.outcomes) {
    for (const Outcome& outcome : outcomes) {
      if (outcome.completed) {
        queue_ms.push_back(outcome.response.queue_seconds * 1e3);
      }
    }
  }
  const csj::service::CsjServer::Stats stats = served.server->GetStats();
  report->Layer("service.queue_wait_p50_ms", Quantile(queue_ms, 0.50), "ms");
  report->Layer("service.queue_wait_p99_ms", Quantile(queue_ms, 0.99), "ms");
  report->Layer("service.result_cache_hit_rate", stats.result_cache.HitRate(),
                "ratio");
  report->Layer("service.result_cache_invalidations",
                static_cast<double>(stats.result_cache.invalidations),
                "count");
  report->Layer("service.snapshot_reuses",
                static_cast<double>(stats.snapshot_reuses), "count");
  report->Detail("service.cache_bypasses",
                 static_cast<double>(stats.cache_bypasses));
}

void MeasureDirectUpserts(
    csj::service::CommunityCatalog* catalog,
    const std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>&
        payloads,
    Report* report) {
  std::vector<double> upsert_ms;
  for (const auto& [id, community] : payloads) {
    csj::Community copy = *community;
    const Span span("service.upsert");
    const Clock::time_point start = Clock::now();
    catalog->Upsert(id, std::move(copy));
    upsert_ms.push_back(MsSince(start));
  }
  report->Attempt(payloads.size());
  report->Layer("service.upsert_p50_ms", Quantile(upsert_ms, 0.50), "ms");
  report->Layer("service.upsert_p99_ms", Quantile(upsert_ms, 0.99), "ms");
}

void MeasureLogAppends(
    const std::string& dir,
    const std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>&
        payloads,
    Report* report) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/scratch.log";
  std::filesystem::remove(path);
  csj::persist::LogWriter writer;
  std::string error;
  report->Attempt();
  if (!writer.Open(path, 1, 1, 0, nullptr, &error)) {
    report->Fail("scratch log open failed: " + error);
    return;
  }
  const uint64_t header = writer.end_offset();
  std::vector<double> append_ms;
  uint64_t version = 0;
  for (const auto& [id, community] : payloads) {
    const Span span("persist.append");
    const Clock::time_point start = Clock::now();
    // sync_every = 1: every append ends with its fdatasync barrier.
    const bool ok = writer.AppendUpsert(id, ++version, *community);
    append_ms.push_back(MsSince(start));
    report->Attempt();
    if (!ok) report->Fail("scratch log append failed");
  }
  const uint64_t bytes = writer.end_offset() - header;
  writer.Close();
  std::filesystem::remove(path);
  report->Layer("persist.log_append_p50_ms", Quantile(append_ms, 0.50), "ms");
  report->Layer("persist.log_append_p99_ms", Quantile(append_ms, 0.99), "ms");
  report->Layer("persist.log_bytes_per_mutation",
                payloads.empty() ? 0.0
                                 : static_cast<double>(bytes) /
                                       static_cast<double>(payloads.size()),
                "bytes");
}

uint64_t CounterBytes(const csj::Community& community) {
  return uint64_t{community.size()} * community.d() * sizeof(csj::Count);
}

bool StoreProbe(const std::string& dir,
                const csj::service::CommunityCatalog::Options& catalog_options,
                const std::vector<std::shared_ptr<const csj::Community>>& entries,
                const std::vector<std::pair<uint64_t,
                                            std::shared_ptr<const csj::Community>>>&
                    tail,
                Report* report) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  report->Attempt();
  std::string error;
  csj::EncodingCache cache;
  csj::service::CommunityCatalog::Options options = catalog_options;
  options.cache = &cache;
  options.mutation_log_capacity = 0;
  csj::service::CommunityCatalog catalog(options);
  std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>> batch;
  uint64_t raw_bytes = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    batch.emplace_back(i + 1, entries[i]);
    raw_bytes += CounterBytes(*entries[i]);
  }
  catalog.BulkLoad(std::move(batch));

  csj::persist::CheckpointStats sealed;
  {
    csj::persist::StoreOptions store_options;
    store_options.dir = dir;
    auto store = csj::persist::Store::Open(store_options, &error);
    if (store == nullptr || !store->Checkpoint(catalog, &error, &sealed) ||
        !store->StartLogging(&catalog, &error)) {
      report->Fail("store probe: " + error);
      return false;
    }
    for (const auto& [id, community] : tail) {
      catalog.Upsert(id, csj::Community(*community));
    }
    store->StopLogging(&catalog);
  }

  csj::EncodingCache cold_cache;
  csj::service::CommunityCatalog::Options cold_options = options;
  cold_options.cache = &cold_cache;
  csj::service::CommunityCatalog restored(cold_options);
  csj::persist::OpenStats opened;
  {
    const Span span("persist.warm_restart");
    csj::persist::StoreOptions store_options;
    store_options.dir = dir;
    auto store = csj::persist::Store::Open(store_options, &error, &opened);
    if (store == nullptr || !store->RestoreInto(&restored, &error, &opened)) {
      report->Fail("store probe restore: " + error);
      return false;
    }
  }
  const bool identical = csj::service::CatalogsIdentical(
      catalog, restored, options.warm_eps, 0.1);
  if (!identical) report->Fail("store probe: restored catalog differs");
  std::filesystem::remove_all(dir);

  report->EndToEnd("store_bytes_per_user_byte",
                   static_cast<double>(sealed.bytes) /
                       static_cast<double>(std::max<uint64_t>(1, raw_bytes)),
                   "ratio");
  report->Layer("persist.map_s", opened.map_seconds, "s");
  report->Layer("persist.restore_s", opened.restore_seconds, "s");
  report->Layer("persist.replay_s", opened.replay_seconds, "s");
  report->Layer("persist.segment_bytes_per_entry",
                static_cast<double>(sealed.bytes) /
                    static_cast<double>(std::max<size_t>(1, entries.size())),
                "bytes");
  return identical;
}

void RefreshTally::Add(const csj::evolve::TopKMaintainer::RefreshOutcome& outcome,
                       double ms) {
  refresh_ms.push_back(ms);
  records += outcome.records_consumed;
  reprobed += outcome.reprobed;
  if (outcome.fast_path) ++fast_paths;
}

void ReportRefresh(const RefreshTally& tally,
                   const csj::evolve::TopKMaintainer& maintainer,
                   Report* report) {
  const double n =
      std::max<double>(1.0, static_cast<double>(tally.refresh_ms.size()));
  report->Detail("refresh_p50_ms", Quantile(tally.refresh_ms, 0.5));
  report->Layer("evolve.fast_path_frac",
                static_cast<double>(tally.fast_paths) / n, "ratio");
  report->Layer("evolve.records_per_refresh",
                static_cast<double>(tally.records) / n, "count");
  report->Layer("evolve.reprobed_per_refresh",
                static_cast<double>(tally.reprobed) / n, "count");
  report->Layer("evolve.fallbacks",
                static_cast<double>(maintainer.GetStats().fallbacks), "count");
  report->Detail("refresh_samples", static_cast<double>(tally.refresh_ms.size()));
}

}  // namespace csjbench
