#ifndef CSJBENCH_BENCH_H_
#define CSJBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/community.h"
#include "core/encoding_cache.h"
#include "evolve/maintainer.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "service/server.h"
#include "service/topk.h"
#include "service/workload.h"
#include "trace.h"

namespace csjbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and short loops: exercises every phase and metric in a
  /// few seconds, for the benchmark's own smoke test.
  bool smoke = false;
  /// >= 0: flip the similarity of the n-th response the correctness gate
  /// checks, to prove the gate catches a wrong answer.
  int64_t corrupt = -1;
  /// Scratch directory for stores, logs and traces (inside the checkout).
  std::string out_dir = ".bench_out";
};

/// Nearest-rank quantile of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// What one run prints: the metrics of the requested kind (end-to-end
/// without tracing, per-layer with it), detail lines for the record, and
/// the attempted/failed operation counts that the correctness gates feed.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// An end-to-end metric (printed by untraced runs).
  void EndToEnd(const std::string& name, double value, const char* unit);
  /// A per-layer metric (printed by traced runs).
  void Layer(const std::string& name, double value, const char* unit);
  /// A detail value for the record (printed on its own line, not graded).
  void Detail(const std::string& name, double value);

  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  /// Counts one failed operation; the first few reasons go to stderr.
  void Fail(const std::string& why);

  /// The correctness gate's hook for --corrupt: true for exactly the n-th
  /// checked response, which the caller then deliberately damages.
  bool CorruptNext();

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  /// Prints the detail line and then the result line (the last line of
  /// standard output).
  void Print() const;

 private:
  using Metric = std::pair<std::string, std::pair<double, std::string>>;

  const Args& args_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, double>> details_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<int64_t> checked_{0};
  std::mutex log_mu_;
  uint64_t logged_ = 0;
};

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// Byte identity of two rankings: ids, versions and similarity bits.
bool SameRanking(const std::vector<csj::service::TopKEntry>& x,
                 const std::vector<csj::service::TopKEntry>& y);

/// Ranked by (similarity desc, id asc), similarities in [0, 1], at most k.
bool WellFormedRanking(const std::vector<csj::service::TopKEntry>& entries,
                       uint32_t k);

/// The wire view of a workload request.
csj::net::WireRequest ToWire(const csj::service::ServeRequest& request);

// ---------------------------------------------------------------- loops

/// One pre-generated request of a connection's schedule.
struct Scheduled {
  csj::net::WireRequest request;
  /// Open loop: seconds after the loop starts at which it is due.
  double due_s = 0.0;
};

/// What happened to one scheduled request.
struct Outcome {
  bool completed = false;  ///< a response frame arrived
  double latency_ms = 0.0;   ///< closed loop: call time; open: from due
  double lateness_ms = 0.0;  ///< open loop: send time minus due time
  csj::net::WireResponse response;
};

/// Closed loop over loopback: client c walks schedules[c] in order, one
/// request in flight, until `seconds` have passed; one thread and one
/// connection per client. outcomes[c] holds the executed prefix.
/// Transport failures end that client's loop and are returned in
/// `transport_errors`.
struct LoopResult {
  std::vector<std::vector<Outcome>> outcomes;
  double seconds = 0.0;
  uint64_t transport_errors = 0;
};
LoopResult RunClosedLoop(uint16_t port,
                         const std::vector<std::vector<Scheduled>>& schedules,
                         double seconds, uint64_t request_base);

/// Optional limits of an open loop.
struct OpenLoopLimits {
  /// > 0: at most this many requests in flight; a request that comes due
  /// while the window is full is sent when a response frees a slot (its
  /// latency still counts from its due time). 0: no window.
  uint64_t max_outstanding = 0;
  /// > 0: nothing is sent once this many seconds have passed; the rest of
  /// the schedule is dropped from the result. 0: the whole schedule.
  double send_seconds = 0.0;
};

/// Open loop over loopback from ONE thread: every schedule is one
/// connection; each request is sent at its due time whether or not
/// earlier ones completed (responses are matched by request id), and its
/// latency is timed from the due time. Requests still unanswered
/// `drain_s` seconds after the last send count as not completed.
/// outcomes[c] holds the sent prefix of schedules[c].
LoopResult RunOpenLoop(uint16_t port,
                       const std::vector<std::vector<Scheduled>>& schedules,
                       double drain_s, uint64_t request_base,
                       const OpenLoopLimits& limits = {});

// --------------------------------------------------------------- layers

/// A running server: encoding cache, CsjServer and (optionally) its
/// loopback front end, destroyed front end first.
struct Served {
  std::unique_ptr<csj::EncodingCache> cache;
  std::unique_ptr<csj::service::CsjServer> server;
  std::unique_ptr<csj::net::NetServer> net;
  csj::service::TopKOptions topk;  ///< the serving template

  void StartNet();
  void Stop();
};

/// Direct layer-by-layer replay of sampled top-k queries against a
/// quiesced catalog, plus the directly timed TopKSimilarService::Query of
/// each; emits the core/matching/service.topk per-layer metrics and the
/// trace reconciliation.
void ReplayLayers(const Served& served,
                  const std::vector<std::shared_ptr<const csj::Community>>&
                      queries,
                  Report* report);

/// Times the wire codec on the run's own payloads and the loopback
/// overhead (loopback minus in-process latency of the same requests).
void MeasureNet(Served* served, const std::vector<Outcome>& sample_outcomes,
                const std::vector<Scheduled>& sample_requests,
                Report* report);

/// service.* counters of a finished loop.
void ReportServiceCounters(const Served& served, const LoopResult& loop,
                           Report* report);

/// Times direct CommunityCatalog::Upsert calls with the given
/// (id, community) payloads.
void MeasureDirectUpserts(
    csj::service::CommunityCatalog* catalog,
    const std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>&
        payloads,
    Report* report);

/// Times LogWriter::AppendUpsert + barrier on a benchmark-owned scratch
/// log holding the given payloads.
void MeasureLogAppends(
    const std::string& dir,
    const std::vector<std::pair<uint64_t, std::shared_ptr<const csj::Community>>>&
        payloads,
    Report* report);

/// Raw counter bytes of a community.
uint64_t CounterBytes(const csj::Community& community);

/// Seals `entries` into a store under `dir`, appends `tail` through the
/// durable log, re-opens it cold and restores it. Reports
/// store_bytes_per_user_byte (end-to-end) and the persist.* layer
/// metrics. False on any store error (counted as a failure).
bool StoreProbe(const std::string& dir,
                const csj::service::CommunityCatalog::Options& catalog_options,
                const std::vector<std::shared_ptr<const csj::Community>>& entries,
                const std::vector<std::pair<uint64_t,
                                            std::shared_ptr<const csj::Community>>>&
                    tail,
                Report* report);

/// Standing-query refreshes timed one by one.
struct RefreshTally {
  std::vector<double> refresh_ms;
  uint64_t records = 0;
  uint64_t reprobed = 0;
  uint64_t fast_paths = 0;

  void Add(const csj::evolve::TopKMaintainer::RefreshOutcome& outcome,
           double ms);
};

/// The evolve.* per-layer metrics, and refresh_p50_ms on the detail line
/// (not graded: the same refresh work on large_prescreen_read moved 18%
/// between runs under host contention).
void ReportRefresh(const RefreshTally& tally,
                   const csj::evolve::TopKMaintainer& maintainer,
                   Report* report);

/// Largest relative gap allowed between the replay's summed layer self
/// times and the directly timed TopKSimilarService::Query.
inline constexpr double kReconcileTolerance = 0.25;

// ------------------------------------------------------------ workloads

void RunLargePrescreenRead(const Args& args, Report* report);
void RunSmallHotOpen(const Args& args, Report* report);
void RunChurnDurable(const Args& args, Report* report);

}  // namespace csjbench

#endif  // CSJBENCH_BENCH_H_
