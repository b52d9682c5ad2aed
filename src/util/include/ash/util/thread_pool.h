#pragma once

/// \file thread_pool.h
/// A small fixed-size worker pool for embarrassingly parallel campaign
/// work (DESIGN.md Sec. 8): independent chips of a Table-1 run, ablation
/// sweep points, the two policies of the multicore comparison.
///
/// Design constraints, in order:
///   1. *Determinism* — the pool never decides what work exists or how
///      results combine; callers submit a fixed task list and merge results
///      by index.  `parallel_for` guarantees the result layout (and thus
///      any later reduction order) is identical to the serial loop, so
///      parallel campaigns are bit-identical to serial ones as long as the
///      tasks themselves share no mutable state.
///   2. *No dependencies* — std::thread + mutex + condition_variable only.
///   3. *Exception transparency* — a throwing task does not kill a worker;
///      the exception is rethrown on the caller's thread.
///
/// A pool of size <= 1 (including the default on single-core machines)
/// degenerates to running tasks inline on the calling thread, which keeps
/// single-core CI runs and unit tests on the exact serial code path.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace ash::util {

class ThreadPool {
 public:
  /// Start `threads` workers.  0 means "one per hardware thread"; on a
  /// single-core machine (or when hardware_concurrency is unknown) the
  /// pool runs tasks inline and starts no workers at all.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 = inline mode).
  int size() const { return static_cast<int>(workers_.size()); }

  /// Submit one task; the future carries its result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();  // inline mode: run on the caller, exception goes to fut
      return fut;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run `fn(i)` for i in [0, count) across the pool and return the
  /// results ordered by index.  Blocks until every task finished; if any
  /// task threw, rethrows the lowest-index exception after all tasks have
  /// completed (no task is left running on pool state).
  template <typename Fn>
  auto parallel_for(int count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn, int>> {
    using R = std::invoke_result_t<Fn, int>;
    std::vector<std::future<R>> futures;
    futures.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      futures.push_back(submit([&fn, i] { return fn(i); }));
    }
    std::vector<R> results;
    results.reserve(static_cast<std::size_t>(count));
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        results.push_back(f.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The pool size to use for a campaign-level fan-out: min(tasks, cores),
/// never negative.  Returns 0 or 1 (inline) on single-core machines.
int recommended_pool_size(int task_count);

}  // namespace ash::util
