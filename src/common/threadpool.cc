#include "common/threadpool.h"

#include <algorithm>
#include <cassert>

namespace slingshot {

ThreadPool::ThreadPool(int num_workers)
    : num_workers_(std::max(1, num_workers)) {
  threads_.reserve(std::size_t(num_workers_ - 1));
  for (int w = 1; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

std::size_t ThreadPool::run_tasks(int worker_id) {
  std::size_t done = 0;
  for (;;) {
    const std::size_t i = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_n_) {
      return done;
    }
    job_fn_(job_ctx_, i, worker_id);
    ++done;
  }
}

void ThreadPool::worker_loop(int worker_id) {
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_start_.wait(lock,
                   [&] { return stopping_ || epoch_ != seen_epoch; });
    if (stopping_) {
      return;
    }
    seen_epoch = epoch_;
    if (pending_ == 0) {
      // Woken too late: every task of this fork is accounted for, so the
      // fork may already have joined and the caller may be publishing
      // the next one. Checking in now would claim the next fork's
      // indices against this fork's job state.
      continue;
    }
    // Checked in while the fork is open: the forking thread will not
    // retire or replace the job state until this worker checks out
    // below, so run_tasks() reads job_fn_/job_ctx_/job_n_ race-free
    // outside the lock.
    ++active_;
    lock.unlock();
    const std::size_t done = run_tasks(worker_id);
    lock.lock();
    --active_;
    pending_ -= done;
    if (pending_ == 0 && active_ == 0) {
      cv_done_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              void (*fn)(void*, std::size_t, int),
                              void* ctx) {
  if (n == 0) {
    return;
  }
  // A single worker, or a single task, needs no synchronization at all:
  // run inline on the caller. Results are identical by the determinism
  // contract (each task is a pure function of its own inputs).
  if (num_workers_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(ctx, i, 0);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    assert(pending_ == 0 && active_ == 0 &&
           "ThreadPool::parallel_for is not reentrant");
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_n_ = n;
    next_task_.store(0, std::memory_order_relaxed);
    pending_ = n;
    ++epoch_;
  }
  cv_start_.notify_all();
  // The forking thread participates as worker 0.
  const std::size_t done = run_tasks(/*worker_id=*/0);
  std::unique_lock<std::mutex> lock(mutex_);
  pending_ -= done;
  // The join: every task has run AND every woken worker has checked
  // out. The second condition keeps a straggler that claimed nothing
  // from reading the next fork's job state mid-publish.
  cv_done_.wait(lock, [&] { return pending_ == 0 && active_ == 0; });
}

}  // namespace slingshot
