#ifndef CSJ_UTIL_THREAD_POOL_H_
#define CSJ_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csj::util {

/// Persistent work-sharing thread pool.
///
/// A pool owns `threads - 1` long-lived worker threads; the thread that
/// calls Run() is the remaining worker, so a pool of size T applies T
/// threads to a job without a single thread spawn on the hot path.
/// Jobs are "parallel for" shaped: Run(tasks, body) invokes body(t) for
/// every t in [0, tasks) exactly once. Tasks are claimed DYNAMICALLY from
/// a shared atomic counter in ascending order ("work-stealing-lite"): a
/// worker that finishes a cheap task immediately claims the next one, so
/// skewed task costs self-balance without any migration machinery.
///
/// Determinism: the pool controls only WHICH thread runs a task, never
/// task identity or count, so callers that write task t's output into
/// slot t and merge slots in index order get byte-identical results for
/// every pool size — the contract the joins' chunked scans build on.
///
/// Re-entrancy: Run() called from inside a pool task executes inline on
/// the calling worker (no deadlock, no oversubscription). Concurrent
/// Run() calls from distinct external threads serialize on the job lock.
class ThreadPool {
 public:
  /// A pool that applies up to `threads` threads to each job (the caller
  /// plus `threads - 1` persistent workers). `threads == 1` builds a
  /// degenerate pool whose Run() is an inline loop.
  explicit ThreadPool(uint32_t threads);

  /// Joins all workers. Must not be called while a job is in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs body(t) for every t in [0, tasks) and returns when all calls
  /// have finished. `parallelism` caps the number of threads applied to
  /// this job (including the caller); the default applies the whole pool.
  /// Tasks must not throw (csjoin uses CSJ_CHECK, which aborts).
  void Run(uint32_t tasks, const std::function<void(uint32_t)>& body,
           uint32_t parallelism = UINT32_MAX);

  /// Threads this pool can apply to a job (workers + the caller).
  uint32_t threads() const {
    return static_cast<uint32_t>(workers_.size()) + 1;
  }

  /// True on a thread currently executing a pool task (any pool).
  static bool OnWorkerThread();

  /// The process-wide pool, lazily built with DefaultThreads() on first
  /// use and intentionally never destroyed (worker threads must not be
  /// joined during static destruction). Library entry points that take an
  /// optional `ThreadPool*` fall back to this instance when given null —
  /// the injectable-instance seam the tests use.
  static ThreadPool& Global();

  /// Size Global() will be built with: the CSJ_THREADS environment
  /// variable when set to a positive integer, else
  /// std::thread::hardware_concurrency() (min 1).
  static uint32_t DefaultThreads();

 private:
  void WorkerLoop();
  /// Claims and runs tasks of the current generation until exhausted.
  void DrainTasks(const std::function<void(uint32_t)>& body);

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes workers: new job / shutdown
  std::condition_variable done_cv_;  ///< wakes the submitter
  // Job slot, guarded by mutex_ except for the atomics.
  uint64_t generation_ = 0;          ///< bumped once per job
  const std::function<void(uint32_t)>* body_ = nullptr;
  uint32_t total_ = 0;               ///< tasks in the current job
  uint32_t max_workers_ = 0;         ///< workers allowed into the job
  uint32_t joined_ = 0;              ///< workers that entered the job
  uint32_t active_ = 0;              ///< workers still inside DrainTasks
  // The two claim-loop atomics are RMW'd once per task by every worker;
  // each gets its own cache line so claiming a task never invalidates the
  // completion counter's line (or the mutex word) on the other cores.
  alignas(64) std::atomic<uint32_t> next_{0};  ///< next unclaimed task
  alignas(64) std::atomic<uint32_t> completed_{0};
  bool shutdown_ = false;

  std::mutex submit_mutex_;          ///< serializes external Run() calls
  std::vector<std::thread> workers_;
};

}  // namespace csj::util

#endif  // CSJ_UTIL_THREAD_POOL_H_
