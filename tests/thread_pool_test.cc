// Tests for the persistent thread pool: task coverage under dynamic
// claiming, pool reuse across calls (no per-call thread spawn), the
// inline single-thread path, the parallelism cap and re-entrancy. The
// joins' chunk partitioner on top of the pool is covered by
// ScanChunksTest in parallel_test.cc.

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace csj::util {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  for (const uint32_t tasks : {1u, 2u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(tasks);
    for (auto& h : hits) h = 0;
    pool.Run(tasks, [&](uint32_t t) { ++hits[t]; });
    for (uint32_t t = 0; t < tasks; ++t) {
      EXPECT_EQ(hits[t].load(), 1) << "task " << t << " of " << tasks;
    }
  }
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.Run(0, [&](uint32_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

/// The whole point of the pool: worker threads persist across Run()
/// calls, so repeated jobs execute on the same small set of thread ids
/// instead of spawning fresh threads per call.
TEST(ThreadPoolTest, WorkersPersistAcrossCalls) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::set<std::thread::id> ids;
  for (int round = 0; round < 20; ++round) {
    // A task off the caller thread waits until a caller-thread task of
    // this round has run. The 3 workers then hold at most 3 of the 64
    // tasks, so a pool whose caller participates must claim one; the
    // bounded wait turns a pool where it does not into a failed
    // expectation below instead of a hang.
    std::atomic<bool> caller_ran{false};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    pool.Run(64, [&](uint32_t) {
      if (std::this_thread::get_id() == caller) {
        caller_ran.store(true, std::memory_order_release);
      } else {
        while (!caller_ran.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      const std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
  }
  // 3 persistent workers + the caller; per-call spawning would have
  // accumulated up to 60 distinct ids by now.
  EXPECT_LE(ids.size(), 4u);
  EXPECT_TRUE(ids.count(std::this_thread::get_id()) == 1);
}

/// threads == 1 builds a degenerate pool whose Run is an inline loop on
/// the calling thread, in ascending task order.
TEST(ThreadPoolTest, SingleThreadPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint32_t> order;
  pool.Run(8, [&](uint32_t t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(t);  // no lock: must be single-threaded
  });
  ASSERT_EQ(order.size(), 8u);
  for (uint32_t t = 0; t < 8; ++t) EXPECT_EQ(order[t], t);
}

/// parallelism == 1 forces the inline path even on a big pool.
TEST(ThreadPoolTest, ParallelismCapOfOneStaysOnCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.Run(16, [&](uint32_t t) { seen[t] = std::this_thread::get_id(); },
           /*parallelism=*/1);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

/// A capped job never applies more threads than the cap.
TEST(ThreadPoolTest, ParallelismCapBoundsConcurrency) {
  ThreadPool pool(8);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  pool.Run(
      64,
      [&](uint32_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
      },
      /*parallelism=*/2);
  EXPECT_LE(ids.size(), 2u);
}

/// Run() from inside a pool task must not deadlock; it degrades to an
/// inline loop on the worker.
TEST(ThreadPoolTest, NestedRunExecutesInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> inner_hits(32);
  for (auto& h : inner_hits) h = 0;
  std::atomic<int> outer_hits{0};
  pool.Run(8, [&](uint32_t) {
    EXPECT_TRUE(ThreadPool::OnWorkerThread());
    ++outer_hits;
    pool.Run(32, [&](uint32_t t) { ++inner_hits[t]; });
  });
  EXPECT_EQ(outer_hits.load(), 8);
  for (uint32_t t = 0; t < 32; ++t) EXPECT_EQ(inner_hits[t].load(), 8);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

/// Dynamic claiming self-balances skew: one task 100x the rest must not
/// stop the others from spreading over the remaining workers. (Checked
/// structurally — every task runs — plus the claim order: task 0 is
/// claimed first.)
TEST(ThreadPoolTest, ClaimsTasksInAscendingOrder) {
  ThreadPool pool(1);  // inline: claim order == execution order
  std::vector<uint32_t> order;
  pool.Run(16, [&](uint32_t t) { order.push_back(t); });
  for (uint32_t t = 0; t < 16; ++t) EXPECT_EQ(order[t], t);
}

TEST(ThreadPoolTest, GlobalIsASingleton) {
  ThreadPool& first = ThreadPool::Global();
  ThreadPool& second = ThreadPool::Global();
  EXPECT_EQ(&first, &second);
  EXPECT_GE(first.threads(), 1u);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

/// Back-to-back jobs with different bodies reuse the pool safely (the
/// generation handshake: no stale body may leak into the next job).
TEST(ThreadPoolTest, BackToBackJobsDoNotCrossTalk) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    const auto expected = static_cast<uint64_t>(round) * 10;
    pool.Run(10, [&, round](uint32_t) {
      sum.fetch_add(static_cast<uint64_t>(round));
    });
    EXPECT_EQ(sum.load(), expected) << "round " << round;
  }
}

}  // namespace
}  // namespace csj::util
