#include "trace.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace csjbench {

namespace {

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

/// One recording thread's spans plus its open-span stack. Buffers are
/// owned by the registry, so they outlive the threads that filled them.
struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<std::pair<uint64_t, uint64_t>> open;  ///< (span, request)
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_span{1};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 14);
    ThreadBuffer* raw = owned.get();
    const std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

/// Every recorded span; callers run after the recording threads joined.
std::vector<SpanRecord> AllSpans() {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : Registry()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

}  // namespace

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Record(const char* name, uint64_t request, int64_t start_ns,
                    int64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  const uint64_t parent = buffer.open.empty() ? 0 : buffer.open.back().first;
  buffer.spans.push_back(
      SpanRecord{name, g_next_span.fetch_add(1, std::memory_order_relaxed),
                 parent, request, start_ns, end_ns});
}

uint64_t Tracer::SpanCount() {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  uint64_t count = 0;
  for (const auto& buffer : Registry()) count += buffer->spans.size();
  return count;
}

bool Tracer::WriteJsonl(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& span : AllSpans()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes(uint64_t request_lo,
                                                uint64_t request_hi) {
  const std::vector<SpanRecord> spans = AllSpans();
  // Children run on their parent's thread and nest inside it, so the
  // covered part of a parent is the sum of its children's durations.
  std::unordered_map<uint64_t, int64_t> covered;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) covered[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRecord& span : spans) {
    if (span.request < request_lo || span.request > request_hi) continue;
    const auto it = covered.find(span.id);
    const int64_t self = span.end_ns - span.start_ns -
                         (it == covered.end() ? 0 : it->second);
    SelfTime& total = by_name[span.name];
    total.name = span.name;
    total.seconds += static_cast<double>(self) / 1e9;
    ++total.spans;
  }
  std::vector<SelfTime> result;
  for (auto& [name, total] : by_name) result.push_back(total);
  return result;
}

Span::Span(const char* name, uint64_t request) : name_(name) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  if (!buffer.open.empty()) {
    parent_ = buffer.open.back().first;
    if (request == 0) request = buffer.open.back().second;
  }
  request_ = request;
  buffer.open.emplace_back(id_, request_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  buffer.spans.push_back(
      SpanRecord{name_, id_, parent_, request_, start_ns_, end_ns});
}

}  // namespace csjbench
