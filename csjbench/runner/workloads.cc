// The three benchmark workloads. Each builds its inputs and its full
// request schedule from the seed before anything is timed, sets the
// server up several times (setup_s is the median), serves the schedule
// over loopback, and then checks the answers.
//
//   large_prescreen_read  100k entries, prescreen reads, closed loop
//   small_hot_open        24 entries, result cache, 5% upserts, open loop
//   churn_durable         20k entries restored from a store, durable
//                         writes beside prescreen reads and refreshes

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "core/method.h"
#include "core/signature.h"
#include "net/net_client.h"
#include "persist/store.h"
#include "service/deep_compare.h"
#include "util/rng.h"

namespace csjbench {

namespace {

using Payloads =
    std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>;

constexpr uint32_t kWorkers = 4;
constexpr uint32_t kTopK = 5;
constexpr uint32_t kStandingQueries = 8;
constexpr double kPrescreenThreshold = 0.10;

/// The catalog is one fixed seeded dataset per workload, so runs with
/// different --seed values serve the same data; --seed generates the
/// traffic: the request schedules, the mutation payloads and their ids.
/// (Across dataset seeds the hottest zipf queries are different
/// communities of different cost, which moved topk_p50_ms by about 8%
/// run to run on large_prescreen_read.)
constexpr uint64_t kDatasetSeed = 42;

/// An independent stream per (seed, purpose).
csj::util::Rng Stream(uint64_t seed, uint64_t purpose) {
  uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (purpose + 1));
  return csj::util::Rng(csj::util::SplitMix64(state));
}

/// The per-run scratch directory (stores and logs), removed at the end.
std::string RunDir(const Args& args) {
  return args.out_dir + "/" + args.workload + "-" + std::to_string(args.seed) +
         "-" + std::to_string(::getpid());
}

csj::service::CsjServer::Options ServerOptions(
    csj::EncodingCache* cache, const csj::service::WorkloadOptions& workload,
    bool signatures, bool result_cache) {
  csj::service::CsjServer::Options options;
  options.workers = kWorkers;
  options.queue_capacity = 256;
  options.catalog.cache = cache;
  options.catalog.warm_eps = workload.eps;
  if (signatures) options.catalog.signatures = csj::SignatureOptions{};
  // The standing-query maintainer reads the catalog's mutation journal.
  options.catalog.mutation_log_capacity = 8192;
  options.result_cache = result_cache;
  return options;
}

csj::service::TopKOptions ServingTemplate(csj::EncodingCache* cache,
                                          csj::Epsilon eps, bool prescreen) {
  csj::service::TopKOptions topk;
  topk.k = kTopK;
  topk.method = csj::Method::kExMinMax;
  topk.join.eps = eps;
  topk.join.cache = cache;
  topk.prescreen = prescreen;
  topk.prescreen_threshold = kPrescreenThreshold;
  topk.query_threads = 1;
  return topk;
}

/// A fresh cache and server, optionally started by `fill`, then the
/// loopback front end.
template <typename Fill>
std::unique_ptr<Served> StartServed(
    const csj::service::WorkloadOptions& workload, bool signatures,
    bool result_cache, Fill fill) {
  auto served = std::make_unique<Served>();
  served->cache = std::make_unique<csj::EncodingCache>();
  served->server = std::make_unique<csj::service::CsjServer>(ServerOptions(
      served->cache.get(), workload, signatures, result_cache));
  served->topk =
      ServingTemplate(served->cache.get(), workload.eps, signatures);
  if (!fill(served.get())) return nullptr;
  served->StartNet();
  return served;
}

/// Runs `build` `repeats` times (each result replaces the previous one,
/// which is torn down first) and reports the median build time as
/// setup_s.
template <typename Build>
std::unique_ptr<Served> RepeatedSetup(int repeats, Report* report,
                                      Build build) {
  std::unique_ptr<Served> served;
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    if (served != nullptr) served->Stop();
    served.reset();
    const Span span("setup");
    const Clock::time_point start = Clock::now();
    served = build();
    seconds.push_back(SecondsSince(start));
    report->Attempt();
    if (served == nullptr) {
      report->Fail("server setup failed");
      return nullptr;
    }
  }
  report->EndToEnd("setup_s", Quantile(seconds, 0.5), "s");
  report->Detail("setup_repeats", static_cast<double>(repeats));
  return served;
}

/// Pre-generated closed-loop read schedules, one per client.
std::vector<std::vector<Scheduled>> ReadSchedules(
    const csj::service::ServeWorkload& workload,
    const csj::service::TopKOptions& topk, uint64_t seed, size_t clients,
    size_t per_client) {
  std::vector<std::vector<Scheduled>> schedules(clients);
  for (size_t c = 0; c < clients; ++c) {
    csj::util::Rng rng = Stream(seed, 100 + c);
    for (size_t i = 0; i < per_client; ++i) {
      csj::service::ServeRequest request = workload.NextRequest(rng, topk);
      request.kind = csj::service::RequestKind::kTopK;
      schedules[c].push_back(Scheduled{ToWire(request), 0.0});
    }
  }
  return schedules;
}

/// Fresh churn communities at seeded ids.
Payloads MintPayloads(const csj::service::ServeWorkload& workload,
                      uint64_t seed, uint64_t purpose, size_t count) {
  csj::util::Rng rng = Stream(seed, purpose);
  const uint64_t ids = workload.communities().size();
  Payloads payloads;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t id = 1 + rng.Below(ids);
    payloads.emplace_back(id, workload.MintAgainstAnchor(rng));
  }
  return payloads;
}

/// Standing-query pivots spread over the pool.
std::vector<std::shared_ptr<const csj::Community>> Pivots(
    const csj::service::ServeWorkload& workload) {
  std::vector<std::shared_ptr<const csj::Community>> pivots;
  const auto& pool = workload.communities();
  for (uint32_t q = 0; q < kStandingQueries; ++q) {
    pivots.push_back(pool[(static_cast<size_t>(q) * pool.size()) /
                          kStandingQueries]);
  }
  return pivots;
}

/// Checks and summarizes the responses of a loop: every scheduled request
/// that ran is one attempted operation; no response, a status other than
/// ok, or a malformed ranking fails it.
struct LoopSummary {
  std::vector<double> topk_ms;
  std::vector<double> upsert_ms;
  std::vector<double> lateness_ms;
  uint64_t topk_completed = 0;
};

LoopSummary CheckLoop(const LoopResult& loop,
                      const std::vector<std::vector<Scheduled>>& schedules,
                      bool open_loop, Report* report) {
  LoopSummary summary;
  for (size_t c = 0; c < loop.outcomes.size(); ++c) {
    for (size_t i = 0; i < loop.outcomes[c].size(); ++i) {
      const Outcome& outcome = loop.outcomes[c][i];
      const csj::net::WireRequest& request = schedules[c][i].request;
      report->Attempt();
      if (open_loop) summary.lateness_ms.push_back(outcome.lateness_ms);
      if (!outcome.completed) {
        report->Fail("no response");
        continue;
      }
      if (outcome.response.status != csj::service::ServeStatus::kOk) {
        report->Fail(std::string("status ") +
                     csj::service::ServeStatusName(outcome.response.status));
        continue;
      }
      switch (request.kind) {
        case csj::service::RequestKind::kTopK:
          if (!WellFormedRanking(outcome.response.entries, request.k) ||
              outcome.response.entries.empty()) {
            report->Fail("malformed top-k ranking");
            continue;
          }
          summary.topk_ms.push_back(outcome.latency_ms);
          ++summary.topk_completed;
          break;
        case csj::service::RequestKind::kUpsert:
          if (outcome.response.version == 0) {
            report->Fail("upsert acknowledged without a version");
            continue;
          }
          summary.upsert_ms.push_back(outcome.latency_ms);
          break;
        case csj::service::RequestKind::kRemove:
          break;
      }
    }
  }
  // A client that lost its connection stopped early; count the loss.
  for (uint64_t e = 0; e < loop.transport_errors; ++e) {
    report->Attempt();
    report->Fail("transport error");
  }
  return summary;
}

void ReportLoop(const LoopSummary& summary, double seconds, Report* report) {
  report->EndToEnd("topk_qps",
                   static_cast<double>(summary.topk_completed) / seconds,
                   "1/s");
  report->EndToEnd("topk_p50_ms", Quantile(summary.topk_ms, 0.50), "ms");
  // p99 is on the detail line, not graded: under host contention its
  // run-to-run spread reached 0.46 on large_prescreen_read (see
  // STEADINESS.md), beyond the largest bound the benchmark may set.
  report->Detail("topk_p99_ms", Quantile(summary.topk_ms, 0.99));
  report->Detail("topk_samples", static_cast<double>(summary.topk_ms.size()));
  report->Detail("loop_seconds", seconds);
  if (!summary.lateness_ms.empty()) {
    report->Detail("lateness_p50_ms", Quantile(summary.lateness_ms, 0.50));
    report->Detail("lateness_p99_ms", Quantile(summary.lateness_ms, 0.99));
    report->Detail("lateness_max_ms", Quantile(summary.lateness_ms, 1.0));
  }
}

/// Mutation latency goes on the detail line, not into the graded metrics:
/// on the 4-vCPU host it was recorded on, fsync- and contention-bound
/// upsert latency moved 20% (p50) to 85% (p99) between runs of one
/// configuration, wider than any usable regression bound.
void ReportUpserts(const std::vector<double>& upsert_ms, Report* report) {
  report->Detail("upsert_p50_ms", Quantile(upsert_ms, 0.50));
  report->Detail("upsert_p99_ms", Quantile(upsert_ms, 0.99));
  report->Detail("upsert_samples", static_cast<double>(upsert_ms.size()));
}

/// The first `count` requests of a schedule with their outcomes (the
/// codec and overhead samples).
void SampleOutcomes(const LoopResult& loop,
                    const std::vector<std::vector<Scheduled>>& schedules,
                    size_t count, std::vector<Outcome>* outcomes,
                    std::vector<Scheduled>* requests) {
  for (size_t i = 0; outcomes->size() < count; ++i) {
    bool any = false;
    for (size_t c = 0; c < loop.outcomes.size() && outcomes->size() < count;
         ++c) {
      if (i >= loop.outcomes[c].size()) continue;
      any = true;
      if (!loop.outcomes[c][i].completed) continue;
      outcomes->push_back(loop.outcomes[c][i]);
      requests->push_back(schedules[c][i]);
    }
    if (!any) break;
  }
}

/// Distinct top-k query communities of the schedules, hottest first
/// (ties: first appearance).
std::vector<std::shared_ptr<const csj::Community>> HotQueries(
    const std::vector<std::vector<Scheduled>>& schedules, size_t count) {
  std::unordered_map<const csj::Community*, size_t> seen;
  std::vector<std::shared_ptr<const csj::Community>> order;
  for (const auto& schedule : schedules) {
    for (const Scheduled& scheduled : schedule) {
      if (scheduled.request.kind != csj::service::RequestKind::kTopK) continue;
      if (seen[scheduled.request.community.get()]++ == 0) {
        order.push_back(scheduled.request.community);
      }
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](const auto& x, const auto& y) {
    return seen[x.get()] > seen[y.get()];
  });
  if (order.size() > count) order.resize(count);
  return order;
}

/// Standing queries under churn: registers the pivots with a
/// TopKMaintainer, then follows every catalog upsert with one timed
/// refresh of every query, as churn_durable's refresher does. (With ten
/// upserts per refresh the same refresh work moved 30% between runs.)
/// Gate: at the end every maintained ranking equals a fresh Query.
void RefreshProbe(Served* served,
                  const std::vector<std::shared_ptr<const csj::Community>>&
                      pivots,
                  const Payloads& payloads, Report* report) {
  csj::service::CommunityCatalog& catalog = served->server->catalog();
  csj::evolve::TopKMaintainer::Options options;
  options.service = &served->server->topk();
  csj::evolve::TopKMaintainer maintainer(&catalog, options);
  for (const auto& pivot : pivots) maintainer.Register(pivot, served->topk);
  maintainer.RefreshAll();  // baselines

  RefreshTally tally;
  for (const auto& [id, community] : payloads) {
    catalog.Upsert(id, csj::Community(*community));
    for (uint32_t q = 0; q < pivots.size(); ++q) {
      const Span span("evolve.refresh");
      const Clock::time_point start = Clock::now();
      const auto outcome = maintainer.Refresh(q);
      tally.Add(outcome, MsSince(start));
      report->Attempt();
    }
  }
  for (uint32_t q = 0; q < pivots.size(); ++q) {
    report->Attempt();
    if (!SameRanking(maintainer.Ranking(q),
                     served->server->topk().Query(*pivots[q], served->topk)
                         .entries)) {
      report->Fail("maintained ranking differs from a fresh query");
    }
  }
  ReportRefresh(tally, maintainer, report);
}

/// The traced run's common per-layer measurements on a quiesced server.
void TracedLayers(Served* served, const LoopResult& loop,
                  const std::vector<std::vector<Scheduled>>& schedules,
                  const std::vector<std::shared_ptr<const csj::Community>>&
                      replay_queries,
                  Report* report) {
  ReplayLayers(*served, replay_queries, report);
  std::vector<Outcome> outcomes;
  std::vector<Scheduled> requests;
  SampleOutcomes(loop, schedules, 8, &outcomes, &requests);
  MeasureNet(served, outcomes, requests, report);
}

void ReportPopulate(const std::vector<csj::service::CommunityCatalog::BulkLoadStats>&
                        stats,
                    Report* report) {
  std::vector<double> encode;
  std::vector<double> sketch;
  std::vector<double> install;
  for (const auto& s : stats) {
    encode.push_back(s.encode_seconds);
    sketch.push_back(s.sketch_seconds);
    install.push_back(s.install_seconds);
  }
  report->Layer("service.populate_encode_s", Quantile(encode, 0.5), "s");
  report->Layer("service.populate_sketch_s", Quantile(sketch, 0.5), "s");
  report->Layer("service.populate_install_s", Quantile(install, 0.5), "s");
}

/// trace.* metrics and the span dump; end-to-end metrics that every run
/// prints are computed before this.
void FinishTrace(const Args& args, const LoopSummary& summary,
                 Report* report) {
  // The cost of one span, measured on this host.
  constexpr int kSpans = 20000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const Span span("trace.calibrate", 1);
  }
  report->Layer("trace.span_cost_ns", MsSince(start) * 1e6 / kSpans, "ns");
  report->Layer("trace.topk_p50_ms", Quantile(summary.topk_ms, 0.5), "ms");
  report->Layer("trace.spans", static_cast<double>(Tracer::SpanCount()),
                "count");
  const std::string path = args.out_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  report->Attempt();
  if (!Tracer::WriteJsonl(path)) report->Fail("cannot write " + path);
}

}  // namespace

// --------------------------------------------------- large_prescreen_read

void RunLargePrescreenRead(const Args& args, Report* report) {
  csj::service::WorkloadOptions options;
  options.catalog_size = args.smoke ? 3000 : 100000;
  options.community_size = 40;
  options.cluster_size = 12;
  options.plant_lo = 0.5;
  options.plant_hi = 0.8;
  options.eps = 1;
  options.upsert_fraction = 0.0;
  options.zipf_s = 1.1;
  options.seed = kDatasetSeed;

  Clock::time_point start = Clock::now();
  const csj::service::ServeWorkload workload(options);
  report->Detail("inputs_s", SecondsSince(start));
  const auto wire_template = ServingTemplate(nullptr, options.eps, true);
  const auto schedules =
      ReadSchedules(workload, wire_template, args.seed, 4,
                    args.smoke ? 200 : 4000);
  // The probes' payloads are part of the fixed dataset, so every run
  // measures the same refresh and store work.
  const Payloads payloads =
      MintPayloads(workload, kDatasetSeed, 1, args.smoke ? 100 : 1280);

  std::vector<csj::service::CommunityCatalog::BulkLoadStats> populate;
  std::unique_ptr<Served> served =
      RepeatedSetup(args.smoke ? 1 : 5, report, [&] {
        return StartServed(options, true, false, [&](Served* s) {
          csj::service::ServeWorkload::PopulateStats stats;
          workload.Populate(s->server.get(), &stats);
          populate.push_back({stats.entries, stats.encode_seconds,
                              stats.sketch_seconds, stats.install_seconds});
          return true;
        });
      });
  if (served == nullptr) return;

  const LoopResult loop =
      RunClosedLoop(served->net->port(), schedules, args.seconds, 0);
  const LoopSummary summary = CheckLoop(loop, schedules, false, report);
  ReportLoop(summary, loop.seconds, report);
  if (args.trace) ReportServiceCounters(*served, loop, report);

  // Gate: the catalog is read-only, so every response for one query must
  // be byte-identical; the three hottest served queries and one seeded
  // other are re-run exhaustively (about 1.3 s each at 100k entries) and
  // every response for them must match.
  std::unordered_map<const csj::Community*, std::vector<const Outcome*>>
      groups;
  std::vector<const csj::Community*> first_seen;
  for (size_t c = 0; c < loop.outcomes.size(); ++c) {
    for (size_t i = 0; i < loop.outcomes[c].size(); ++i) {
      const Outcome& outcome = loop.outcomes[c][i];
      if (!outcome.completed) continue;
      const csj::Community* query = schedules[c][i].request.community.get();
      auto& group = groups[query];
      if (group.empty()) first_seen.push_back(query);
      group.push_back(&outcome);
    }
  }
  for (const csj::Community* query : first_seen) {
    const auto& group = groups[query];
    for (const Outcome* outcome : group) {
      if (!SameRanking(outcome->response.entries, group[0]->response.entries)) {
        report->Fail("responses to one query differ on a read-only catalog");
      }
    }
  }
  std::stable_sort(first_seen.begin(), first_seen.end(),
                   [&](const auto* x, const auto* y) {
                     return groups[x].size() > groups[y].size();
                   });
  std::vector<const csj::Community*> verify(
      first_seen.begin(),
      first_seen.begin() + static_cast<ptrdiff_t>(
                               std::min<size_t>(first_seen.size(), 3)));
  csj::util::Rng pick = Stream(args.seed, 2);
  if (first_seen.size() > verify.size()) {
    const size_t slot =
        verify.size() + pick.Below(first_seen.size() - verify.size());
    std::swap(first_seen[slot], first_seen[verify.size()]);
    verify.push_back(first_seen[verify.size()]);
  }
  csj::service::TopKOptions exhaustive = served->topk;
  exhaustive.prescreen = false;
  exhaustive.use_bound_cutoff = false;
  exhaustive.query_threads = kWorkers;
  size_t verified_responses = 0;
  start = Clock::now();
  for (const csj::Community* query : verify) {
    csj::service::TopKResult truth;
    {
      const Span span("service.topk_exhaustive");
      truth = served->server->topk().Query(*query, exhaustive);
    }
    for (const Outcome* outcome : groups[query]) {
      std::vector<csj::service::TopKEntry> served_entries =
          outcome->response.entries;
      if (report->CorruptNext() && !served_entries.empty()) {
        served_entries[0].similarity *= 0.5;
      }
      ++verified_responses;
      if (!SameRanking(served_entries, truth.entries)) {
        report->Fail("served ranking differs from the exhaustive scan");
      }
    }
  }
  report->Detail("gate_s", SecondsSince(start));
  report->Detail("gate_distinct_queries", static_cast<double>(first_seen.size()));
  report->Detail("gate_exhaustive_queries", static_cast<double>(verify.size()));
  report->Detail("gate_exhaustive_share",
                 summary.topk_completed == 0
                     ? 0.0
                     : static_cast<double>(verified_responses) /
                           static_cast<double>(summary.topk_completed));

  if (args.trace) {
    TracedLayers(served.get(), loop, schedules,
                 HotQueries(schedules, args.smoke ? 4 : 8), report);
    ReportPopulate(populate, report);
  }

  // The write side of the same catalog, after the read-only loop:
  // standing-query refreshes between upserts (traced runs: the evolve.*
  // split), then a sealed sample.
  if (args.trace) {
    RefreshProbe(served.get(), Pivots(workload), payloads, report);
  }
  const auto& pool = workload.communities();
  const std::vector<std::shared_ptr<const csj::Community>> sample(
      pool.begin(),
      pool.begin() + static_cast<ptrdiff_t>(std::min<size_t>(pool.size(), 2000)));
  StoreProbe(RunDir(args) + "/store", served->server->catalog().options(),
             sample, Payloads(payloads.begin(), payloads.begin() + 100), report);
  if (args.trace) {
    const Payloads timed(payloads.begin(),
                         payloads.begin() + static_cast<ptrdiff_t>(
                                                std::min<size_t>(
                                                    payloads.size(), 500)));
    MeasureDirectUpserts(&served->server->catalog(), timed, report);
    MeasureLogAppends(RunDir(args), timed, report);
  }
  served->Stop();
  served.reset();
  std::filesystem::remove_all(RunDir(args));
  report->EndToEnd("peak_rss_mib", PeakRssMib(), "MiB");
  if (args.trace) FinishTrace(args, summary, report);
}

// ---------------------------------------------------------- small_hot_open

void RunSmallHotOpen(const Args& args, Report* report) {
  csj::service::WorkloadOptions options;
  options.catalog_size = 24;
  options.community_size = 150;
  // 3% upserts, not 5%: every upsert invalidates the whole result cache,
  // and at 5% the hit rate sits at about 50%, where topk_p50_ms flips
  // between the hit mode (~0.3 ms) and the miss mode (~2 ms) from run to
  // run. At 3% the hit rate is about 60% and the median stays a hit.
  options.upsert_fraction = 0.03;
  options.zipf_s = 1.1;
  options.eps = 1;
  options.seed = kDatasetSeed;

  Clock::time_point start = Clock::now();
  const csj::service::ServeWorkload workload(options);
  // A constant arrival rate of a bit over half the closed-loop capacity
  // (about 2.4k requests/s with 4 clients at this mix), round-robin over
  // 4 connections; high enough for 1000 upserts per 25 s run.
  const double rate = args.smoke ? 300.0 : 1400.0;
  const auto total = static_cast<size_t>(rate * args.seconds);
  const auto wire_template = ServingTemplate(nullptr, options.eps, false);
  std::vector<std::vector<Scheduled>> schedules(4);
  csj::util::Rng rng = Stream(args.seed, 100);
  for (size_t i = 0; i < total; ++i) {
    const csj::service::ServeRequest request =
        workload.NextRequest(rng, wire_template);
    schedules[i % schedules.size()].push_back(
        Scheduled{ToWire(request), static_cast<double>(i) / rate});
  }
  const Payloads payloads =
      MintPayloads(workload, kDatasetSeed, 1, args.smoke ? 40 : 800);
  report->Detail("inputs_s", SecondsSince(start));
  report->Detail("offered_rate", rate);

  std::vector<csj::service::CommunityCatalog::BulkLoadStats> populate;
  std::unique_ptr<Served> served =
      RepeatedSetup(args.smoke ? 3 : 101, report, [&] {
        return StartServed(options, false, true, [&](Served* s) {
          csj::service::ServeWorkload::PopulateStats stats;
          workload.Populate(s->server.get(), &stats);
          populate.push_back({stats.entries, stats.encode_seconds,
                              stats.sketch_seconds, stats.install_seconds});
          return true;
        });
      });
  if (served == nullptr) return;

  const LoopResult loop =
      RunOpenLoop(served->net->port(), schedules, 5.0, 0);
  const LoopSummary summary = CheckLoop(loop, schedules, true, report);
  ReportLoop(summary, loop.seconds, report);
  ReportUpserts(summary.upsert_ms, report);
  if (args.trace) ReportServiceCounters(*served, loop, report);

  // Gate on the quiesced catalog: for the hottest queries, loopback
  // through the result cache (a miss or a hit, then certainly a hit) must
  // equal a direct exhaustive query.
  csj::service::TopKOptions exhaustive = served->topk;
  exhaustive.use_bound_cutoff = false;
  auto client = csj::net::NetClient::Connect("127.0.0.1", served->net->port());
  report->Attempt();
  if (client == nullptr) report->Fail("gate client cannot connect");
  for (const auto& query : HotQueries(schedules, 8)) {
    if (client == nullptr) break;
    const csj::service::TopKResult truth =
        served->server->topk().Query(*query, exhaustive);
    csj::net::WireRequest request;
    request.kind = csj::service::RequestKind::kTopK;
    request.community = query;
    request.k = kTopK;
    request.eps = options.eps;
    request.prescreen_threshold = kPrescreenThreshold;
    for (int round = 0; round < 2; ++round) {
      csj::net::WireResponse response;
      report->Attempt();
      if (!client->Call(request, &response)) {
        report->Fail("gate request transport error");
        break;
      }
      if (report->CorruptNext() && !response.entries.empty()) {
        response.entries[0].similarity *= 0.5;
      }
      if (!SameRanking(response.entries, truth.entries)) {
        report->Fail("cached loopback ranking differs from the exhaustive "
                     "scan");
      }
      if (round == 1 && !response.cache_hit) {
        report->Fail("repeated query on a quiesced catalog missed the cache");
      }
    }
  }

  if (args.trace) {
    TracedLayers(served.get(), loop, schedules, HotQueries(schedules, 16),
                 report);
    ReportPopulate(populate, report);
  }
  if (args.trace) {
    RefreshProbe(served.get(), Pivots(workload), payloads, report);
  }
  StoreProbe(RunDir(args) + "/store", served->server->catalog().options(),
             workload.communities(),
             Payloads(payloads.begin(), payloads.begin() + 20), report);
  if (args.trace) {
    const Payloads timed(payloads.begin(),
                         payloads.begin() + static_cast<ptrdiff_t>(
                                                std::min<size_t>(
                                                    payloads.size(), 500)));
    MeasureDirectUpserts(&served->server->catalog(), timed, report);
    MeasureLogAppends(RunDir(args), timed, report);
  }
  served->Stop();
  served.reset();
  std::filesystem::remove_all(RunDir(args));
  report->EndToEnd("peak_rss_mib", PeakRssMib(), "MiB");
  if (args.trace) FinishTrace(args, summary, report);
}

// ----------------------------------------------------------- churn_durable

void RunChurnDurable(const Args& args, Report* report) {
  csj::service::WorkloadOptions options;
  options.catalog_size = args.smoke ? 1000 : 20000;
  options.community_size = 40;
  options.cluster_size = 12;
  options.plant_lo = 0.5;
  options.plant_hi = 0.8;
  options.eps = 1;
  options.upsert_fraction = 0.0;
  options.zipf_s = 1.1;
  options.seed = kDatasetSeed;
  const std::string dir = RunDir(args) + "/store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Clock::time_point start = Clock::now();
  const csj::service::ServeWorkload workload(options);
  const uint64_t n = options.catalog_size;

  // Preparation (untimed): populate, seal, and leave a log tail.
  const Payloads tail = MintPayloads(workload, args.seed, 3, 200);
  csj::persist::CheckpointStats sealed;
  csj::service::CommunityCatalog::BulkLoadStats populate;
  uint64_t raw_bytes = 0;
  {
    csj::EncodingCache cache;
    csj::service::CommunityCatalog catalog(
        ServerOptions(&cache, options, true, false).catalog);
    std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>
        batch;
    for (uint64_t i = 0; i < n; ++i) {
      batch.emplace_back(i + 1, workload.communities()[i]);
      raw_bytes += CounterBytes(*workload.communities()[i]);
    }
    catalog.BulkLoad(std::move(batch), &populate);
    csj::persist::StoreOptions store_options;
    store_options.dir = dir;
    std::string error;
    auto store = csj::persist::Store::Open(store_options, &error);
    report->Attempt();
    if (store == nullptr || !store->Checkpoint(catalog, &error, &sealed) ||
        !store->StartLogging(&catalog, &error)) {
      report->Fail("store preparation: " + error);
      return;
    }
    for (const auto& [id, community] : tail) {
      catalog.Upsert(id, csj::Community(*community));
    }
    store->StopLogging(&catalog);
  }

  // Schedules: one writer on a fixed open-loop schedule of 50
  // mutations/s (upserts, and removes of ids that are resident at that
  // point), two closed-loop readers, and the standing queries. At 50/s a
  // write's shard lock is held for a small share of the time even when
  // fdatasync takes several milliseconds.
  const double write_rate = args.smoke ? 30.0 : 50.0;
  std::vector<std::vector<Scheduled>> writes(1);
  {
    csj::util::Rng rng = Stream(args.seed, 4);
    std::vector<uint64_t> resident(n);
    std::vector<uint64_t> removed;
    for (uint64_t i = 0; i < n; ++i) resident[i] = i + 1;
    const auto count = static_cast<size_t>(write_rate * args.seconds);
    for (size_t i = 0; i < count; ++i) {
      csj::net::WireRequest request;
      if (rng.NextDouble() < 0.2) {
        const size_t slot = rng.Below(resident.size());
        request.kind = csj::service::RequestKind::kRemove;
        request.id = resident[slot];
        removed.push_back(resident[slot]);
        resident[slot] = resident.back();
        resident.pop_back();
      } else {
        request.kind = csj::service::RequestKind::kUpsert;
        if (!removed.empty() && rng.NextDouble() < 0.5) {
          request.id = removed.back();  // re-create a removed entry
          removed.pop_back();
          resident.push_back(request.id);
        } else {
          request.id = resident[rng.Below(resident.size())];
        }
        request.community = workload.MintAgainstAnchor(rng);
      }
      writes[0].push_back(Scheduled{request, static_cast<double>(i) / write_rate});
    }
  }
  const auto reads =
      ReadSchedules(workload, ServingTemplate(nullptr, options.eps, true),
                    args.seed, 2, args.smoke ? 400 : 6000);
  const std::vector<std::shared_ptr<const csj::Community>> pivots =
      Pivots(workload);
  report->Detail("inputs_s", SecondsSince(start));

  // Setup: warm restart = Store::Open + RestoreInto (map, restore,
  // replay) into a fresh server, plus the loopback front end.
  std::unique_ptr<csj::persist::Store> store;
  std::vector<csj::persist::OpenStats> opened;
  std::unique_ptr<Served> served =
      RepeatedSetup(args.smoke ? 1 : 15, report, [&] {
        store.reset();
        return StartServed(options, true, true, [&](Served* s) {
          csj::persist::StoreOptions store_options;
          store_options.dir = dir;
          csj::persist::OpenStats stats;
          std::string error;
          store = csj::persist::Store::Open(store_options, &error, &stats);
          if (store == nullptr ||
              !store->RestoreInto(&s->server->catalog(), &error, &stats)) {
            std::fprintf(stderr, "warm restart: %s\n", error.c_str());
            return false;
          }
          opened.push_back(stats);
          return true;
        });
      });
  if (served == nullptr) return;
  std::string error;
  report->Attempt();
  if (!store->StartLogging(&served->server->catalog(), &error)) {
    report->Fail("log attach: " + error);
    return;
  }

  csj::evolve::TopKMaintainer::Options maintainer_options;
  maintainer_options.service = &served->server->topk();
  csj::evolve::TopKMaintainer maintainer(&served->server->catalog(),
                                         maintainer_options);
  for (const auto& pivot : pivots) maintainer.Register(pivot, served->topk);
  maintainer.RefreshAll();  // baselines

  // The loop: writer, readers and refresher run side by side.
  std::atomic<bool> stop{false};
  RefreshTally tally;
  LoopResult write_loop;
  // One write in flight at a time, like a client that waits for each
  // durable acknowledgement: with a pipelined writer a slow fdatasync let
  // queued writes hold several shard locks and server workers at once,
  // and the readers stalled behind them (topk_qps followed the host's
  // disk latency, see STEADINESS.md). A write that comes due while the
  // previous one is in flight is sent when it completes, and its latency
  // still counts from its due time.
  OpenLoopLimits write_limits;
  write_limits.max_outstanding = 1;
  write_limits.send_seconds = args.seconds;
  std::thread writer([&] {
    write_loop = RunOpenLoop(served->net->port(), writes, 5.0, 1ULL << 32,
                             write_limits);
  });
  // The refresher brings all standing queries up to date back to back
  // whenever the mutation journal has moved since its last round.
  std::thread refresher([&] {
    uint64_t seen = served->server->catalog().mutation_seq();
    while (!stop.load()) {
      const uint64_t seq = served->server->catalog().mutation_seq();
      if (seq == seen) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      seen = seq;
      for (uint32_t q = 0; q < pivots.size(); ++q) {
        const Span span("evolve.refresh");
        const Clock::time_point begin = Clock::now();
        const auto outcome = maintainer.Refresh(q);
        tally.Add(outcome, MsSince(begin));
      }
    }
  });
  const LoopResult read_loop =
      RunClosedLoop(served->net->port(), reads, args.seconds, 0);
  writer.join();
  stop.store(true);
  refresher.join();
  report->Attempt(tally.refresh_ms.size());

  const LoopSummary read_summary = CheckLoop(read_loop, reads, false, report);
  const LoopSummary write_summary = CheckLoop(write_loop, writes, true, report);
  ReportLoop(read_summary, read_loop.seconds, report);
  ReportUpserts(write_summary.upsert_ms, report);
  report->Detail("write_lateness_p99_ms",
                 Quantile(write_summary.lateness_ms, 0.99));
  if (args.trace) ReportServiceCounters(*served, read_loop, report);

  // Gates: a cold reopen of the store restores the live catalog byte for
  // byte, and every standing query's maintained ranking equals a fresh
  // query at the final quiesce.
  store->StopLogging(&served->server->catalog());
  {
    const Span span("persist.cold_reopen");
    csj::EncodingCache cold_cache;
    csj::service::CommunityCatalog::Options cold_options =
        served->server->catalog().options();
    cold_options.cache = &cold_cache;
    csj::service::CommunityCatalog restored(cold_options);
    csj::persist::StoreOptions store_options;
    store_options.dir = dir;
    auto reopened = csj::persist::Store::Open(store_options, &error);
    report->Attempt();
    if (reopened == nullptr || !reopened->RestoreInto(&restored, &error)) {
      report->Fail("cold reopen: " + error);
    } else if (!csj::service::CatalogsIdentical(
                   served->server->catalog(), restored, options.eps,
                   kPrescreenThreshold)) {
      report->Fail("cold reopen differs from the live catalog");
    }
  }
  maintainer.RefreshAll();
  for (uint32_t q = 0; q < pivots.size(); ++q) {
    std::vector<csj::service::TopKEntry> maintained = maintainer.Ranking(q);
    if (report->CorruptNext() && !maintained.empty()) {
      maintained[0].similarity *= 0.5;
    }
    report->Attempt();
    if (!SameRanking(maintained,
                     served->server->topk().Query(*pivots[q], served->topk)
                         .entries)) {
      report->Fail("maintained ranking differs from a fresh query");
    }
  }
  ReportRefresh(tally, maintainer, report);
  report->EndToEnd("store_bytes_per_user_byte",
                   static_cast<double>(sealed.bytes) /
                       static_cast<double>(std::max<uint64_t>(1, raw_bytes)),
                   "ratio");

  if (args.trace) {
    std::vector<double> map_s;
    std::vector<double> restore_s;
    std::vector<double> replay_s;
    for (const auto& stats : opened) {
      map_s.push_back(stats.map_seconds);
      restore_s.push_back(stats.restore_seconds);
      replay_s.push_back(stats.replay_seconds);
    }
    report->Layer("persist.map_s", Quantile(map_s, 0.5), "s");
    report->Layer("persist.restore_s", Quantile(restore_s, 0.5), "s");
    report->Layer("persist.replay_s", Quantile(replay_s, 0.5), "s");
    report->Layer("persist.segment_bytes_per_entry",
                  static_cast<double>(sealed.bytes) / static_cast<double>(n),
                  "bytes");
    ReportPopulate({populate}, report);
    TracedLayers(served.get(), read_loop, reads,
                 HotQueries(reads, args.smoke ? 4 : 12), report);
    MeasureLogAppends(RunDir(args), tail, report);
    MeasureDirectUpserts(&served->server->catalog(), tail, report);
  }
  served->Stop();
  served.reset();
  store.reset();
  std::filesystem::remove_all(RunDir(args));
  report->EndToEnd("peak_rss_mib", PeakRssMib(), "MiB");
  if (args.trace) FinishTrace(args, read_summary, report);
}

}  // namespace csjbench
