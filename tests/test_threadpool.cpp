#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace xflow {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, 7, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (std::int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, HandlesEmptyAndSingleElementLoops) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(0, 1, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, 64, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  std::atomic<int> count{0};
  pool.ParallelFor(10, 1, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, CallerParticipatesInTheLoop) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  // The caller claims chunks from the same cursor as the worker, but on a
  // heavily loaded machine the lone worker can drain a whole small loop
  // before the caller's first fetch -- so assert participation across a
  // few attempts rather than demanding it on one specific run.
  bool caller_ran = false;
  for (int attempt = 0; attempt < 50 && !caller_ran; ++attempt) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    pool.ParallelFor(1024, 1, [&](std::int64_t) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      if (std::this_thread::get_id() == caller) caller_ran = true;
    });
    EXPECT_LE(ids.size(), 2u);  // caller + at most one worker
  }
  EXPECT_TRUE(caller_ran);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.ParallelFor(8, 1, [&](std::int64_t) {
    EXPECT_TRUE(ThreadPool::InWorker() || true);  // either role is fine
    pool.ParallelFor(8, 1, [&](std::int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, InWorkerIsFalseOnTheMainThread) {
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ThreadPool, ConcurrentTopLevelCallsFromTwoThreads) {
  // Two application threads race top-level ParallelFor on one pool; the
  // loser of the job-ownership race must fall back to inline execution,
  // never clobber the in-flight job.
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  auto work = [&] {
    for (int round = 0; round < 25; ++round) {
      pool.ParallelFor(100, 3, [&](std::int64_t) { total.fetch_add(1); });
    }
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 2 * 25 * 100);
}

TEST(ThreadPool, SequentialReuseOfTheSamePool) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(97, 5, [&](std::int64_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 97) << "round " << round;
  }
}

TEST(ThreadPool, GlobalPoolExistsAndSetGlobalThreadsResizes) {
  EXPECT_GE(ThreadPool::Global().threads(), 1);
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global().threads(), 3);
  std::atomic<int> count{0};
  ParallelFor(33, 2, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 33);
  // Restore the env-resolved default for any later test in this binary.
  ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
}

TEST(ThreadPool, RejectsThreadCountsAboveTheMaximum) {
  // Only the rejection is tested: the check runs before any worker
  // starts, and an accepted count this large would start them.
  const int before = ThreadPool::Global().threads();
  for (const int threads : {1025, std::numeric_limits<int>::max()}) {
    SCOPED_TRACE(threads);
    EXPECT_THROW(ThreadPool pool(threads), InvalidArgument);
    try {
      ThreadPool::SetGlobalThreads(threads);
      ADD_FAILURE() << "the global pool accepted the count";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(threads)),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(ThreadPool::Global().threads(), before);
  }
}

TEST(ThreadPool, RejectsA64BitThreadCountWithoutNarrowingIt) {
  // 2^32 + 1 narrows to 1 as an int; the global pool must see the typed
  // value and refuse it by name.
  const std::int64_t threads = (std::int64_t{1} << 32) + 1;
  const int before = ThreadPool::Global().threads();
  try {
    ThreadPool::SetGlobalThreads(threads);
    ADD_FAILURE() << "the global pool accepted the count";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("4294967297"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ThreadPool::Global().threads(), before);
}

TEST(ThreadPool, ResolveGlobalThreadsIsPositive) {
  EXPECT_GE(ThreadPool::ResolveGlobalThreads(), 1);
}

}  // namespace
}  // namespace xflow
