#ifndef CSJBENCH_TRACE_H_
#define CSJBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace csjbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the process's first call.
int64_t NowNs();

/// Seconds / milliseconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

/// In-memory span recorder. Spans are opened around the calls the benchmark
/// makes into the library's public functions; each records its name,
/// start, end, parent span and request id. Spans live in per-thread
/// buffers and are written out once, when the run ends. With tracing off
/// (the default) a Span costs one relaxed load.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Records an interval timed by the caller (e.g. an open-loop request
  /// from its due time to its response) as a span of its own.
  static void Record(const char* name, uint64_t request, int64_t start_ns,
                     int64_t end_ns);

  /// Spans recorded so far, over all threads.
  static uint64_t SpanCount();

  /// Writes every recorded span as one JSON object per line.
  static bool WriteJsonl(const std::string& path);

  /// Sum of self times (duration minus the part covered by child spans)
  /// per span name, in seconds, over spans whose request id is in
  /// [request_lo, request_hi].
  struct SelfTime {
    std::string name;
    double seconds = 0.0;
    uint64_t spans = 0;
  };
  static std::vector<SelfTime> SelfTimes(uint64_t request_lo,
                                         uint64_t request_hi);
};

/// RAII span. `request` 0 inherits the enclosing span's request id.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;  ///< 0 when tracing is off
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace csjbench

#endif  // CSJBENCH_TRACE_H_
