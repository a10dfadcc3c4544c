// Deterministic fork-join worker pool.
//
// Each Simulator stays single-threaded: events execute one at a time in
// (time, seq) order. The sharded runtime (sim/sharded.h) uses the pool
// to advance its cell islands, each with its own Simulator, through one
// TTI window in parallel, and joins before draining the mailbox.
// Nothing escapes the fork-join region: no task touches another task's
// state or outlives the join, so every island's (time, seq) trace hash
// is bit-identical at every thread count.
//
// Determinism contract (what callers must uphold, and what
// parallel_for guarantees):
//  * Tasks are enqueued in a fixed index order [0, n) decided before
//    the fork. Workers claim indices dynamically (which worker runs
//    which index is scheduling noise), so each task must depend only on
//    its own pre-staged inputs — never on another task's output.
//  * Each task writes only into its own pre-sized result slot (and
//    per-worker scratch identified by the worker id). Task i's result
//    is therefore a pure function of task i's inputs, and the joined
//    result set is independent of thread count and claim order.
//  * parallel_for returns only after every task has finished (a full
//    barrier), so the caller can consume results serially, in task
//    order, on the event-loop thread.
//
// The hot path allocates nothing: tasks are a raw function pointer plus
// a context pointer (the caller keeps the real closure on its stack),
// claiming is one atomic fetch_add per task, and the caller participates
// as worker 0 instead of blocking while n-1 workers do the work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace slingshot {

class ThreadPool {
 public:
  // `num_workers` includes the calling thread: a pool of N spawns N-1
  // threads, and parallel_for(n, ...) runs tasks on up to N threads.
  // num_workers <= 1 spawns nothing and parallel_for degenerates to a
  // serial loop.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_workers() const { return num_workers_; }

  // Run fn(ctx, task_index, worker_id) for every task_index in [0, n),
  // blocking until all tasks complete. worker_id is in
  // [0, num_workers()); the calling thread is always worker 0. Must be
  // called from the thread that owns the pool (not from inside a task).
  void parallel_for(std::size_t n, void (*fn)(void*, std::size_t, int),
                    void* ctx);

  // Type-safe wrapper: `body` is any callable taking
  // (std::size_t task_index, int worker_id). The callable lives on the
  // caller's stack — no allocation, no std::function.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body) {
    using B = std::remove_reference_t<Body>;
    parallel_for(
        n,
        [](void* ctx, std::size_t i, int worker) {
          (*static_cast<B*>(ctx))(i, worker);
        },
        const_cast<std::remove_const_t<B>*>(std::addressof(body)));
  }

 private:
  void worker_loop(int worker_id);
  // Claim-and-run loop shared by workers and the caller; returns the
  // number of tasks this thread completed.
  std::size_t run_tasks(int worker_id);

  const int num_workers_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;   // bumped once per parallel_for fork
  bool stopping_ = false;

  // Current job. fn/ctx/n are stable from publish until the join
  // completes (workers hold active_ > 0 while reading them); claiming
  // is the one lock-free operation on the task path.
  void (*job_fn_)(void*, std::size_t, int) = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t job_n_ = 0;
  std::atomic<std::size_t> next_task_{0};
  // Guarded by mutex_: tasks not yet accounted for, and workers
  // currently between check-in and check-out.
  std::size_t pending_ = 0;
  int active_ = 0;
};

}  // namespace slingshot
