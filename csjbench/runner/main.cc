// csjbench — the csjoin benchmark program.
//
//   csjbench --workload <large_prescreen_read|small_hot_open|churn_durable>
//            --seed <n> --seconds <s> --trace <0|1> [--smoke 1]
//            [--corrupt <n>] [--out <dir>]
//
// Builds the workload's inputs from the seed, serves them in-process
// through CsjServer + NetServer over loopback, measures for --seconds,
// checks the answers, and prints one JSON result as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics (from a separate traced run) with --trace 1. The line before it
// holds run details (sample counts, generator lateness, ungraded
// latencies, and the stamps: CSJBENCH_GIT_SHA from the environment and
// the host's core count).
// Exit status is 0 only when every correctness gate passed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace csjbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Report::EndToEnd(const std::string& name, double value,
                      const char* unit) {
  end_to_end_.push_back({name, {value, unit}});
}

void Report::Layer(const std::string& name, double value, const char* unit) {
  layers_.push_back({name, {value, unit}});
}

void Report::Detail(const std::string& name, double value) {
  details_.emplace_back(name, value);
}

void Report::Fail(const std::string& why) {
  failed_.fetch_add(1);
  const std::lock_guard<std::mutex> lock(log_mu_);
  if (++logged_ <= 20) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

bool Report::CorruptNext() {
  return args_.corrupt >= 0 && checked_.fetch_add(1) == args_.corrupt;
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string GitSha() {
  const char* sha = std::getenv("CSJBENCH_GIT_SHA");
  return sha != nullptr && *sha != '\0' ? sha : "unknown";
}

}  // namespace

void Report::Print() const {
  std::string detail = "{\"detail\": {\"workload\": \"" + args_.workload +
                       "\", \"git_sha\": \"" + GitSha() + "\"";
  detail += ", \"host_cores\": " +
            std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  detail += ", \"seed\": " + std::to_string(args_.seed);
  detail += ", \"trace\": " + std::to_string(args_.trace ? 1 : 0);
  detail += ", \"failed_ops_frac\": " +
            Number(attempted() == 0 ? 0.0
                                    : static_cast<double>(failed()) /
                                          static_cast<double>(attempted()));
  for (const auto& [name, value] : details_) {
    detail += ", \"" + name + "\": " + Number(value);
  }
  detail += "}}";
  std::printf("%s\n", detail.c_str());

  std::string result = "{\"correct\": ";
  result += failed() == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted());
  result += ", \"failed\": " + std::to_string(failed());
  result += ", \"metrics\": {";
  const auto& metrics = args_.trace ? layers_ : end_to_end_;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) result += ", ";
    result += "\"" + metrics[i].first + "\": {\"value\": " +
              Number(metrics[i].second.first) + ", \"unit\": \"" +
              metrics[i].second.second + "\"}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool SameRanking(const std::vector<csj::service::TopKEntry>& x,
                 const std::vector<csj::service::TopKEntry>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].id != y[i].id || x[i].version != y[i].version ||
        std::bit_cast<uint64_t>(x[i].similarity) !=
            std::bit_cast<uint64_t>(y[i].similarity)) {
      return false;
    }
  }
  return true;
}

bool WellFormedRanking(const std::vector<csj::service::TopKEntry>& entries,
                       uint32_t k) {
  if (entries.size() > k) return false;
  for (size_t i = 0; i < entries.size(); ++i) {
    const double s = entries[i].similarity;
    if (!(s >= 0.0 && s <= 1.0)) return false;
    if (i > 0) {
      const auto& prev = entries[i - 1];
      if (prev.similarity < s ||
          (prev.similarity == s && prev.id >= entries[i].id)) {
        return false;
      }
    }
  }
  return true;
}

csj::net::WireRequest ToWire(const csj::service::ServeRequest& request) {
  csj::net::WireRequest wire;
  wire.kind = request.kind;
  wire.id = request.id;
  wire.community = request.community;
  wire.k = request.topk.k;
  wire.eps = request.topk.join.eps;
  wire.method = request.topk.method;
  wire.prescreen = request.topk.prescreen;
  wire.use_bound_cutoff = request.topk.use_bound_cutoff;
  wire.prescreen_threshold = request.topk.prescreen_threshold;
  wire.deadline_seconds = request.deadline_seconds;
  return wire;
}

}  // namespace csjbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: csjbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke 1] [--corrupt <n>] [--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  csjbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--smoke") {
      args.smoke = value == "1";
    } else if (key == "--corrupt") {
      args.corrupt = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0)) return Usage();

  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 2;
  }
  csjbench::Tracer::Enable(args.trace);
  csjbench::Report report(args);
  if (args.workload == "large_prescreen_read") {
    csjbench::RunLargePrescreenRead(args, &report);
  } else if (args.workload == "small_hot_open") {
    csjbench::RunSmallHotOpen(args, &report);
  } else if (args.workload == "churn_durable") {
    csjbench::RunChurnDurable(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}
