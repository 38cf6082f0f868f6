//===- test_threadpool.cpp - thread pool and parallel loop tests ----------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

using namespace cjpack;

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
  ThreadPool Pool;
  EXPECT_EQ(Pool.size(), ThreadPool::defaultThreadCount());
}

TEST(ThreadPool, ReturnsResultsThroughFutures) {
  ThreadPool Pool(4);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 64; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Futures[static_cast<size_t>(I)].get(), I * I);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  std::vector<int> Order;
  {
    ThreadPool Pool(1);
    for (int I = 0; I < 100; ++I)
      Pool.submit([I, &Order] { Order.push_back(I); });
  }
  std::vector<int> Want(100);
  std::iota(Want.begin(), Want.end(), 0);
  EXPECT_EQ(Order, Want);
}

TEST(ThreadPool, ExceptionPropagatesToFuture) {
  ThreadPool Pool(2);
  auto Ok = Pool.submit([] { return 7; });
  auto Bad = Pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(Ok.get(), 7);
  EXPECT_THROW(
      {
        try {
          Bad.get();
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "task failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPool, ExceptionDoesNotKillTheWorker) {
  ThreadPool Pool(1);
  auto Bad = Pool.submit([] { throw std::runtime_error("boom"); });
  auto After = Pool.submit([] { return 42; });
  EXPECT_THROW(Bad.get(), std::runtime_error);
  EXPECT_EQ(After.get(), 42);
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  std::atomic<int> Done{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ++Done;
      });
    // Destruction must run every queued task, not drop the backlog.
  }
  EXPECT_EQ(Done.load(), 64);
}

TEST(ThreadPool, ManySmallTasksAcrossWorkers) {
  std::atomic<long> Sum{0};
  {
    ThreadPool Pool(8);
    for (long I = 1; I <= 1000; ++I)
      Pool.submit([I, &Sum] { Sum += I; });
  }
  EXPECT_EQ(Sum.load(), 1000L * 1001 / 2);
}

TEST(ThreadPool, ConcurrentSubmittersRaceShutdown) {
  // Tiny tasks from several submitter threads maximize the window
  // where a spinning worker pops a task the instant it is published;
  // if the queued-task counter ever underflowed, workers would spin
  // and the pool destructor would stall instead of joining cleanly.
  std::atomic<int> Done{0};
  {
    ThreadPool Pool(4);
    std::vector<std::thread> Submitters;
    for (int T = 0; T < 4; ++T)
      Submitters.emplace_back([&Pool, &Done] {
        for (int I = 0; I < 500; ++I)
          Pool.submit([&Done] { ++Done; });
      });
    for (std::thread &T : Submitters)
      T.join();
    // Pool destruction races the tail of the just-submitted backlog.
  }
  EXPECT_EQ(Done.load(), 4 * 500);
}

TEST(ThreadPool, WorkersStealSkewedBacklog) {
  // One long task pins a worker; the small tasks queued behind it must
  // all run on the other worker meanwhile, not wait for the long one.
  std::atomic<int> Small{0};
  {
    ThreadPool Pool(2);
    Pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
    for (int I = 0; I < 32; ++I)
      Pool.submit([&Small] { ++Small; });
  }
  EXPECT_EQ(Small.load(), 32);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (size_t N : {size_t(0), size_t(1), size_t(7), size_t(1000)})
    for (unsigned Threads : {0u, 1u, 2u, 8u}) {
      std::vector<std::atomic<int>> Runs(N);
      parallelFor(N, Threads, [&Runs](size_t I) { ++Runs[I]; });
      for (size_t I = 0; I < N; ++I)
        EXPECT_EQ(Runs[I].load(), 1)
            << "N " << N << " threads " << Threads << " index " << I;
    }
}

TEST(ParallelFor, OneThreadRunsInlineInOrder) {
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<size_t> Order;
  parallelFor(100, 1, [&Order, Caller](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  std::vector<size_t> Want(100);
  std::iota(Want.begin(), Want.end(), size_t{0});
  EXPECT_EQ(Order, Want);
}

TEST(ParallelFor, NoMoreThreadsThanTasksOrThreads) {
  for (size_t N : {size_t(1), size_t(3), size_t(1000)})
    for (unsigned Threads : {0u, 1u, 2u, 8u}) {
      std::mutex Mu;
      std::set<std::thread::id> Ids;
      parallelFor(N, Threads, [&](size_t) {
        // Long enough that idle helpers would be seen taking indices.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        std::lock_guard<std::mutex> Lock(Mu);
        Ids.insert(std::this_thread::get_id());
      });
      unsigned Width = Threads ? Threads : ThreadPool::defaultThreadCount();
      EXPECT_LE(Ids.size(), std::min<size_t>(Width, N))
          << "N " << N << " threads " << Threads;
      if (N == 1 || Width == 1) {
        ASSERT_EQ(Ids.size(), 1u);
        EXPECT_EQ(*Ids.begin(), std::this_thread::get_id());
      }
    }
}

TEST(ParallelFor, ThrowingBodyRethrowsOnCallerAfterEveryBodyEnds) {
  for (unsigned Threads : {1u, 2u, 8u}) {
    std::atomic<int> Running{0};
    std::atomic<int> Finished{0};
    EXPECT_THROW(
        {
          try {
            parallelFor(64, Threads, [&](size_t I) {
              ++Running;
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              if (I == 5) {
                --Running;
                throw std::runtime_error("index 5 failed");
              }
              ++Finished;
              --Running;
            });
          } catch (const std::runtime_error &E) {
            EXPECT_STREQ(E.what(), "index 5 failed");
            throw;
          }
        },
        std::runtime_error)
        << "threads " << Threads;
    EXPECT_EQ(Running.load(), 0) << "threads " << Threads;
    int After = Finished.load();
    if (Threads == 1) {
      EXPECT_EQ(After, 5); // inline, in order, stopping at the throw
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(Finished.load(), After) << "threads " << Threads;
  }
}
