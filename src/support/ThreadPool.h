//===- ThreadPool.h - parallel loop and FIFO thread pool -------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two ways cjpack runs work in parallel.
///
/// parallelFor is the one loop every parallel stage of pack and unpack
/// runs on: parse, the model and emit passes, the compression batch,
/// and the version-2 and version-3 shard decodes. The calling thread
/// takes part, helper threads live only for the call, and each stage
/// writes its results into per-index slots and reports the first
/// failure in index order. Which thread runs which index depends on
/// scheduling; what a stage returns does not, so archive bytes and
/// errors never depend on the thread count.
///
/// ThreadPool is cjpackd's handler pool: long-lived workers taking
/// tasks from one FIFO queue. submit() returns a std::future, so
/// results and exceptions propagate to the caller; the destructor
/// drains every queued task before joining (shutdown never drops
/// submitted work).
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SUPPORT_THREADPOOL_H
#define CJPACK_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

namespace cjpack {

class ThreadPool {
public:
  /// Spawns \p ThreadCount workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned ThreadCount = 0) {
    if (ThreadCount == 0)
      ThreadCount = defaultThreadCount();
    Threads.reserve(ThreadCount);
    for (unsigned I = 0; I < ThreadCount; ++I)
      Threads.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs every task already submitted, then joins the workers.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stopping = true;
    }
    Cv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  /// One worker per hardware thread (at least one).
  static unsigned defaultThreadCount() {
    unsigned N = std::thread::hardware_concurrency();
    return N == 0 ? 1 : N;
  }

  /// Enqueues \p F behind every task submitted before it. The returned
  /// future delivers F's result, or rethrows whatever F threw.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> submit(Fn &&F) {
    using R = std::invoke_result_t<Fn>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(F));
    std::future<R> Result = Task->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Queue.emplace_back([Task] { (*Task)(); });
    }
    Cv.notify_one();
    return Result;
  }

private:
  void workerLoop() {
    while (true) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        Cv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
        if (Queue.empty())
          return; // stopping, and the backlog is drained
        Task = std::move(Queue.front());
        Queue.pop_front();
      }
      Task();
    }
  }

  std::mutex Mutex;
  std::condition_variable Cv;
  std::deque<std::function<void()>> Queue; ///< guarded by Mutex
  bool Stopping = false;                   ///< guarded by Mutex
  std::vector<std::thread> Threads;
};

/// Runs Body(I) for every I < N on the calling thread plus up to
/// min(Threads, N) - 1 helper threads (Threads = 0: one per hardware
/// thread). The threads claim indices from one shared counter. One
/// thread, or N <= 1, runs every index inline, in order, and starts no
/// thread. Returns only after every helper has joined, so Body may
/// capture the caller's frame by reference. If Body throws, no further
/// index is claimed, and the first exception caught is rethrown here
/// once every helper has joined.
template <typename Fn> void parallelFor(size_t N, unsigned Threads, Fn &&Body) {
  if (Threads == 0)
    Threads = ThreadPool::defaultThreadCount();
  size_t Width = std::min<size_t>(Threads, N);
  if (Width <= 1) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::mutex FailureMutex;
  std::exception_ptr Failure; ///< guarded by FailureMutex
  auto Drain = [&] {
    try {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Body(I);
    } catch (...) {
      Next.store(N);
      std::lock_guard<std::mutex> Lock(FailureMutex);
      if (!Failure)
        Failure = std::current_exception();
    }
  };
  std::vector<std::thread> Helpers;
  Helpers.reserve(Width - 1);
  try {
    for (size_t T = 1; T < Width; ++T)
      Helpers.emplace_back(Drain);
  } catch (const std::system_error &) {
    // Fewer helpers than asked for: the threads already started and the
    // caller still claim every index.
  }
  Drain();
  for (std::thread &T : Helpers)
    T.join();
  if (Failure)
    std::rethrow_exception(Failure);
}

} // namespace cjpack

#endif // CJPACK_SUPPORT_THREADPOOL_H
