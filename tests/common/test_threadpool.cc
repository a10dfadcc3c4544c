// Deterministic fork-join pool (common/threadpool.h).
//
// The contract under test: parallel_for runs every index in [0, n)
// exactly once, joins before returning, hands out worker ids inside
// [0, num_workers), and — because tasks write disjoint slots — produces
// results independent of worker count and claim order. The stress
// cases re-fork the same pool thousands of times with varying n, which
// is what shakes out publish/join races under TSAN.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/threadpool.h"

namespace slingshot {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const int workers : {1, 2, 3, 8}) {
    ThreadPool pool{workers};
    ASSERT_EQ(pool.num_workers(), workers);
    for (const std::size_t n : {std::size_t(0), std::size_t(1),
                                std::size_t(7), std::size_t(64),
                                std::size_t(1000)}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) {
        h.store(0);
      }
      pool.parallel_for(n, [&](std::size_t i, int worker) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, workers);
        hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " workers "
                                     << workers;
      }
    }
  }
}

TEST(ThreadPool, JoinsBeforeReturning) {
  ThreadPool pool{4};
  std::vector<std::uint8_t> done(512, 0);
  pool.parallel_for(done.size(), [&](std::size_t i, int) { done[i] = 1; });
  // If the join were incomplete this read would race (TSAN) or see 0.
  EXPECT_EQ(std::accumulate(done.begin(), done.end(), 0), 512);
}

TEST(ThreadPool, DisjointSlotResultsAreThreadCountInvariant) {
  auto run = [](int workers) {
    ThreadPool pool{workers};
    std::vector<std::uint64_t> out(257, 0);
    pool.parallel_for(out.size(), [&](std::size_t i, int) {
      // A task is a pure function of its index.
      std::uint64_t v = i * 0x9E3779B97F4A7C15ULL + 1;
      v ^= v >> 29;
      out[i] = v;
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(5), serial);
  EXPECT_EQ(run(16), serial);
}

TEST(ThreadPool, CallerParticipatesAsWorkerZero) {
  ThreadPool pool{3};
  std::atomic<int> worker0_hits{0};
  std::atomic<bool> caller_ran{false};
  // Spawned workers park inside their first task until the caller has
  // run one, so the remaining tasks can only be claimed by the calling
  // thread — which joins as worker 0 by construction. Without the gate
  // the spawned threads could race through all tasks first.
  pool.parallel_for(1000, [&](std::size_t, int worker) {
    if (worker == 0) {
      worker0_hits.fetch_add(1);
      caller_ran.store(true);
    } else {
      while (!caller_ran.load()) {
        std::this_thread::yield();
      }
    }
  });
  EXPECT_GT(worker0_hits.load(), 0);
}

TEST(ThreadPool, ReforkStress) {
  ThreadPool pool{4};
  std::uint64_t checksum = 0;
  for (int round = 0; round < 3000; ++round) {
    const std::size_t n = std::size_t(round % 13);
    std::vector<std::uint64_t> out(n, 0);
    pool.parallel_for(n,
                      [&](std::size_t i, int) { out[i] = i + 1; });
    checksum += std::accumulate(out.begin(), out.end(), std::uint64_t(0));
  }
  // sum over rounds of n*(n+1)/2 with n cycling 0..12.
  std::uint64_t want = 0;
  for (int round = 0; round < 3000; ++round) {
    const std::uint64_t n = std::uint64_t(round % 13);
    want += n * (n + 1) / 2;
  }
  EXPECT_EQ(checksum, want);
}

// A worker woken for one fork may reach the pool's lock only after that
// fork has joined and the caller has started publishing the next one.
// If it checked in then, it would claim indices of the new fork against
// the old fork's size and function, running an index twice or never
// (the join then waits forever). Forks that alternate between large and
// small on more workers than cores make such late wakers common.
TEST(ThreadPool, LateWakingWorkerNeverJoinsAFinishedFork) {
  ThreadPool pool{16};
  for (int round = 0; round < 20000; ++round) {
    const std::size_t n = round % 2 == 0 ? 200 : 2;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) {
      h.store(0);
    }
    pool.parallel_for(n, [&](std::size_t i, int) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPool, SingleWorkerPoolRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.num_workers(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(int(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ClampsNonPositiveWorkerCount) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.num_workers(), 1);
  int runs = 0;
  pool.parallel_for(3, [&](std::size_t, int) { ++runs; });
  EXPECT_EQ(runs, 3);
}

}  // namespace
}  // namespace slingshot
