// Work-stealing task scheduler for data-parallel loops and task graphs.
//
// Two primitives share one pool of persistent workers:
//
//   * TaskGroup -- Spawn/Wait over arbitrary task closures. Each worker
//     owns a chase-lev style deque (owner pushes and pops at the bottom,
//     LIFO; thieves steal from the top, FIFO), threads outside the pool
//     submit through a shared inbox. A thread blocked in Wait() does not
//     idle: it pops its own deque, then steals, so nested groups (a task
//     that spawns and waits on subtasks) cannot deadlock -- every waiter
//     is also an executor.
//   * ParallelFor -- compatibility shim on top of TaskGroup: the index
//     space is cut into fixed chunks of `grain` consecutive indices and
//     participants claim chunks from per-region atomic cursors (regions
//     follow the worker that likely first-touched the rows, see
//     ParallelFor below).
//
// Determinism contract (repo-wide, unchanged since PR 1): the chunk
// boundaries are a pure function of (n, grain) and reduction kernels
// combine fixed chunks in a fixed order, so scheduling only ever changes
// *which thread* runs a chunk, never what that chunk computes. Results
// are bit-identical at every thread count and under any steal order.
//
// Thread count resolution order: SetGlobalThreads() (e.g. a --threads CLI
// flag) > XFLOW_THREADS environment variable > hardware concurrency.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>

#include "common/function_ref.hpp"

namespace xflow {

class TaskGroup;

namespace detail {
struct TaskGroupAccess;
}  // namespace detail

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the thread calling ParallelFor or
  /// TaskGroup::Wait is the final participant. `threads < 1` is clamped
  /// to 1 (inline execution, no workers); above 1024 it throws
  /// InvalidArgument naming the count, before starting any worker.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n), distributing chunks of `grain`
  /// consecutive indices across the workers plus the calling thread, and
  /// blocks until all n invocations have returned. Runs inline when the
  /// loop fits in one chunk or the pool has one thread. Chunks are dealt
  /// from per-region cursors: a participant first drains the region
  /// matching its own worker slot, then scans the others -- for a loop
  /// whose rows were first-touch initialized by the same chunking (see
  /// Workspace/Tensor fills), a worker therefore re-claims the rows it
  /// faulted in, keeping chunks cache- and NUMA-local in the balanced
  /// case. Nested calls (from inside a task or another loop) spawn onto
  /// the caller's own deque, so idle workers help while a busy pool
  /// degrades to inline execution. Throws the first chunk exception
  /// after the loop has quiesced.
  void ParallelFor(std::int64_t n, std::int64_t grain,
                   FunctionRef<void(std::int64_t)> fn);

  /// True when called from inside a pool worker thread.
  static bool InWorker();

  /// Process-wide pool, created on first use with the resolved thread
  /// count (see header comment for the resolution order).
  static ThreadPool& Global();
  /// Rebuilds the global pool with `threads` workers (clamped to >= 1).
  /// Above 1024 it throws InvalidArgument naming the count, unnarrowed,
  /// and keeps the current pool. Resizing while any TaskGroup or
  /// ParallelFor is active on the global pool would tear down workers
  /// mid-task, so it throws InvalidArgument when active work is detected
  /// instead of racing.
  static void SetGlobalThreads(std::int64_t threads);
  /// Thread count the global pool would use if created now.
  static int ResolveGlobalThreads();

 private:
  friend class TaskGroup;
  friend struct detail::TaskGroupAccess;
  struct Impl;
  int threads_;  // initialized (and checked) before impl_ is allocated
  Impl* impl_;
};

/// A set of spawned tasks that one thread waits on. Nested-safe: tasks
/// may create and wait on their own groups, and any thread blocked in
/// Wait() executes queued tasks (its own group's or others') instead of
/// idling. Spawned callables are borrowed (FunctionRef), so they must
/// stay alive until Wait() returns; the destructor waits for stragglers
/// for exactly that reason. Not movable: queued tasks point back at this
/// object.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool);
  /// Group over the process-wide pool.
  TaskGroup();
  /// Waits for any still-pending tasks (swallowing their errors -- call
  /// Wait() explicitly to observe them) so spawned closures never
  /// outlive their referents.
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` for execution. On a worker thread of the pool the
  /// task goes to that worker's own deque (bottom); elsewhere to the
  /// shared inbox. On a single-threaded pool the task runs inline, in
  /// spawn order. If a task of this group has already thrown, the new
  /// task is recorded but will be skipped.
  void Spawn(FunctionRef<void()> task);

  /// Runs and steals tasks until every spawned task has finished, then
  /// rethrows the first exception any of them raised (remaining tasks of
  /// a failed group are skipped, not cancelled mid-run). The group is
  /// reusable afterwards.
  void Wait();

 private:
  friend struct detail::TaskGroupAccess;

  void RecordError() noexcept;
  void FinishOne() noexcept;
  void RethrowIfError();

  ThreadPool& pool_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> aborted_{false};
  std::mutex err_mu_;
  std::exception_ptr first_error_;  // guarded by err_mu_
};

/// Shorthand for ThreadPool::Global().ParallelFor(n, grain, fn).
void ParallelFor(std::int64_t n, std::int64_t grain,
                 FunctionRef<void(std::int64_t)> fn);

/// Per-thread scratch arena for kernels that stage tiles (e.g. the ops
/// engine's transpose-on-the-fly path). Returns a buffer of at least
/// `bytes` bytes, aligned for any scalar type, private to the calling
/// thread and reused across calls: the next ThreadScratch call on the same
/// thread may return the same (possibly reallocated) memory, so a caller
/// must be done with the previous buffer before requesting another. The
/// contents are uninitialized. Because a thread blocked in Wait() (or
/// between chunks of a ParallelFor) may execute unrelated stolen tasks,
/// the buffer is only stable within a single chunk body: never hold a
/// ThreadScratch pointer across a ParallelFor, Spawn-heavy region, or
/// Wait.
[[nodiscard]] void* ThreadScratch(std::size_t bytes);

}  // namespace xflow
