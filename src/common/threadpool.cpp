#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/thread_annotations.hpp"

namespace xflow {

namespace {

thread_local bool t_in_worker = false;
// Identity of the pool (if any) whose worker this thread is, plus its
// slot index in that pool. A worker of pool A calling into pool B must
// use B's inbox, not A's deque, so slot lookups are always paired with a
// pool identity check.
thread_local const void* t_pool = nullptr;
thread_local int t_slot = -1;

// Upper bound on a pool's thread count, for every source of it.
constexpr int kMaxThreads = 1024;

/// `threads` clamped to at least 1; throws InvalidArgument naming it when
/// it exceeds kMaxThreads, before anything is allocated or started.
int CheckedThreads(std::int64_t threads) {
  require(threads <= kMaxThreads, [&] {
    return StrFormat("thread count %lld is above the maximum of %d",
                     static_cast<long long>(threads), kMaxThreads);
  });
  return static_cast<int>(std::max<std::int64_t>(1, threads));
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int EnvThreads() {
  const char* env = std::getenv("XFLOW_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || v < 1 ||
      v > kMaxThreads) {
    // A malformed value must not silently fall back to hardware
    // concurrency: a misconfigured run (XFLOW_THREADS=8x, =-2, =99999)
    // would otherwise look exactly like an unconfigured one. Warn once.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "xflow: ignoring invalid XFLOW_THREADS=\"%s\" (expected an "
                   "integer in [1, %d]); using hardware concurrency\n",
                   env, kMaxThreads);
    }
    return 0;
  }
  return static_cast<int>(v);
}

/// One queued task: a borrowed closure plus the group awaiting it.
struct Task {
  FunctionRef<void()> fn;
  TaskGroup* group;
};

/// Chase-lev discipline over a guarded deque: the owning worker pushes
/// and pops at the bottom (LIFO keeps a task's freshly spawned subtasks
/// hot in its own cache), thieves take from the top (FIFO steals the
/// oldest -- typically largest -- piece of work). The mutex keeps the
/// structure simple and TSan-provable; at task granularity (graph ops
/// and loop-helper tickets, not individual indices) it is uncontended.
class WorkDeque {
 public:
  void PushBottom(const Task& t) {
    MutexLock lock(mu_);
    q_.push_back(t);
  }
  bool PopBottom(Task* out) {
    MutexLock lock(mu_);
    if (q_.empty()) return false;
    *out = q_.back();
    q_.pop_back();
    return true;
  }
  bool StealTop(Task* out) {
    MutexLock lock(mu_);
    if (q_.empty()) return false;
    *out = q_.front();
    q_.pop_front();
    return true;
  }

 private:
  Mutex mu_;
  std::deque<Task> q_ XFLOW_GUARDED_BY(mu_);
};

}  // namespace

namespace detail {
/// Private bridge between the pool internals and TaskGroup (the pool's
/// nested Impl cannot be named in a friend declaration from TaskGroup).
struct TaskGroupAccess {
  static void Run(const Task& t) noexcept {
    if (!t.group->aborted_.load(std::memory_order_relaxed)) {
      try {
        t.fn();
      } catch (...) {
        t.group->RecordError();
      }
    }
    t.group->FinishOne();
  }
  static ThreadPool::Impl* PoolImpl(const TaskGroup& g) {
    return g.pool_.impl_;
  }
};
}  // namespace detail

struct ThreadPool::Impl {
  int threads = 1;
  // queues[s] belongs to worker slot s; external threads (including the
  // application thread driving a top-level loop) share the inbox.
  std::vector<std::unique_ptr<WorkDeque>> queues;
  WorkDeque inbox;

  // Sleep/wake handshake. `queued` counts tasks sitting in any queue;
  // waiters re-check it under sleep_mu before blocking, and pushers
  // bump it and then acquire/release sleep_mu before notifying, so a
  // waiter that saw zero is guaranteed to be inside wait() by the time
  // the notification fires.
  Mutex sleep_mu;
  std::condition_variable_any cv;
  bool shutdown XFLOW_GUARDED_BY(sleep_mu) = false;
  std::atomic<std::int64_t> queued{0};

  // Live TaskGroup / ParallelFor count, for the resize-safety contract.
  std::atomic<int> active_groups{0};

  std::vector<std::thread> workers;

  void Push(const Task& t) {
    if (t_pool == this && t_slot >= 0) {
      queues[static_cast<std::size_t>(t_slot)]->PushBottom(t);
    } else {
      inbox.PushBottom(t);
    }
    queued.fetch_add(1, std::memory_order_relaxed);
    { MutexLock lock(sleep_mu); }  // order the push before the notify
    cv.notify_all();
  }

  /// Own deque first (bottom), then the inbox, then the other workers'
  /// deques (top), scanning from the next slot so thieves spread out.
  bool TryGetWork(Task* out) {
    const int slot = (t_pool == this) ? t_slot : -1;
    if (slot >= 0 && queues[static_cast<std::size_t>(slot)]->PopBottom(out)) {
      queued.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (slot < 0 && inbox.PopBottom(out)) {
      queued.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    const int w = static_cast<int>(queues.size());
    for (int d = 0; d < w; ++d) {
      const int victim = (slot < 0 ? d : (slot + 1 + d) % w);
      if (victim == slot) continue;
      if (queues[static_cast<std::size_t>(victim)]->StealTop(out)) {
        queued.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    if (slot >= 0 && inbox.StealTop(out)) {
      queued.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  void NotifyAll() {
    { MutexLock lock(sleep_mu); }
    cv.notify_all();
  }

  void WorkerLoop(int slot) {
    t_in_worker = true;
    t_pool = this;
    t_slot = slot;
    for (;;) {
      Task t{[] {}, nullptr};
      if (TryGetWork(&t)) {
        detail::TaskGroupAccess::Run(t);
        continue;
      }
      MutexLock lock(sleep_mu);
      if (shutdown) return;
      if (queued.load(std::memory_order_relaxed) != 0) continue;
      cv.wait(sleep_mu);
      if (shutdown) return;
    }
  }
};

ThreadPool::ThreadPool(int threads)
    : threads_(CheckedThreads(threads)), impl_(new Impl) {
  impl_->threads = threads_;
  impl_->queues.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    impl_->queues.push_back(std::make_unique<WorkDeque>());
  }
  impl_->workers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    impl_->workers.emplace_back([impl = impl_, i] { impl->WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_->active_groups.load(std::memory_order_acquire) != 0) {
    // A throwing destructor would terminate with no context; fail loudly
    // instead. Queued tasks reference TaskGroups (and usually stack
    // frames) that are about to disappear -- there is no safe recovery.
    std::fprintf(stderr,
                 "xflow: fatal: ThreadPool destroyed while %d task group(s) "
                 "/ parallel loop(s) are still active\n",
                 impl_->active_groups.load(std::memory_order_relaxed));
    std::abort();
  }
  {
    MutexLock lock(impl_->sleep_mu);
    impl_->shutdown = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

bool ThreadPool::InWorker() { return t_in_worker; }

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::TaskGroup(ThreadPool& pool) : pool_(pool) {
  pool_.impl_->active_groups.fetch_add(1, std::memory_order_acq_rel);
}

TaskGroup::TaskGroup() : TaskGroup(ThreadPool::Global()) {}

TaskGroup::~TaskGroup() {
  if (pending_.load(std::memory_order_acquire) != 0) {
    try {
      Wait();
    } catch (...) {
      // The explicit-Wait contract is the error path; the destructor only
      // guarantees the lifetime invariant (no task outlives its closure).
    }
  }
  pool_.impl_->active_groups.fetch_sub(1, std::memory_order_acq_rel);
}

void TaskGroup::Spawn(FunctionRef<void()> task) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  const Task t{task, this};
  if (pool_.threads() == 1) {
    // No workers: run inline, immediately, in spawn order -- the
    // deterministic degenerate schedule.
    detail::TaskGroupAccess::Run(t);
    return;
  }
  pool_.impl_->Push(t);
}

void TaskGroup::Wait() {
  ThreadPool::Impl* impl = pool_.impl_;
  while (pending_.load(std::memory_order_acquire) != 0) {
    Task t{[] {}, nullptr};
    if (impl->TryGetWork(&t)) {
      // Help: the stolen task may belong to any group (running it cannot
      // deadlock -- it only ever waits on tasks that waiters also run).
      detail::TaskGroupAccess::Run(t);
      continue;
    }
    MutexLock lock(impl->sleep_mu);
    if (pending_.load(std::memory_order_acquire) == 0) break;
    if (impl->queued.load(std::memory_order_relaxed) != 0) continue;
    impl->cv.wait(impl->sleep_mu);
  }
  RethrowIfError();
}

void TaskGroup::RecordError() noexcept {
  aborted_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(err_mu_);
  if (!first_error_) first_error_ = std::current_exception();
}

void TaskGroup::FinishOne() noexcept {
  // The final decrement releases the waiter, which may return from
  // Wait() and destroy this group immediately -- so nothing on `this`
  // may be touched after the fetch_sub. The pool's impl is safe to use
  // past that point: workers are joined before the pool deletes it, and
  // an external helper reaching here is inside some group's Wait() on
  // the same pool, so active_groups != 0 and the pool destructor would
  // abort rather than free it.
  ThreadPool::Impl* impl = pool_.impl_;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task out wakes the (possibly sleeping) waiter.
    impl->NotifyAll();
  }
}

void TaskGroup::RethrowIfError() {
  if (!aborted_.load(std::memory_order_acquire)) return;
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    err = first_error_;
    first_error_ = nullptr;
  }
  aborted_.store(false, std::memory_order_relaxed);
  if (err) std::rethrow_exception(err);
}

// ---------------------------------------------------------------------------
// ParallelFor

namespace {

/// Shared state of one loop: fixed chunk grid + per-region claim
/// cursors. Chunk c always covers [c*grain, min((c+1)*grain, n)) -- a
/// pure function of (n, grain) -- so region shape and claim order can
/// never change what any index computes, only which thread runs it.
struct LoopState {
  FunctionRef<void(std::int64_t)> fn;
  std::int64_t n;
  std::int64_t grain;
  std::int64_t chunks;
  int regions;
  const std::atomic<bool>* aborted;
  std::unique_ptr<std::atomic<std::int64_t>[]> cursor;

  LoopState(FunctionRef<void(std::int64_t)> f, std::int64_t n_,
            std::int64_t grain_, std::int64_t chunks_, int regions_,
            const std::atomic<bool>* aborted_)
      : fn(f),
        n(n_),
        grain(grain_),
        chunks(chunks_),
        regions(regions_),
        aborted(aborted_),
        cursor(new std::atomic<std::int64_t>[static_cast<std::size_t>(
            regions_)]) {
    for (int r = 0; r < regions; ++r) {
      cursor[r].store(RegionBegin(r), std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::int64_t RegionBegin(int r) const {
    return chunks * r / regions;
  }

  /// Claims and runs chunks, own region first, then the rest in ring
  /// order. With the same chunking used by the first-touch fills, the
  /// worker on slot `home` re-claims the rows it faulted in whenever the
  /// load is balanced; stealing across regions only kicks in when a
  /// region runs dry.
  void Drain(int home) {
    for (int d = 0; d < regions; ++d) {
      const int r = (home + d) % regions;
      const std::int64_t hi = RegionBegin(r + 1);
      for (;;) {
        const std::int64_t c = cursor[r].fetch_add(1, std::memory_order_relaxed);
        if (c >= hi) break;
        const std::int64_t begin = c * grain;
        const std::int64_t end = std::min(begin + grain, n);
        for (std::int64_t i = begin; i < end; ++i) fn(i);
        if (aborted->load(std::memory_order_relaxed)) return;
      }
    }
  }
};

/// Home region of the calling thread within `pool`: workers use their
/// slot, everyone else (the application thread, or a worker of some
/// other pool) takes the last region -- the one no worker claims first.
int HomeRegion(const void* pool_impl, int regions) {
  if (t_pool == pool_impl && t_slot >= 0 && t_slot < regions) return t_slot;
  return regions - 1;
}

}  // namespace

void ThreadPool::ParallelFor(std::int64_t n, std::int64_t grain,
                             FunctionRef<void(std::int64_t)> fn) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (threads_ == 1 || chunks <= 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(*this);
  std::atomic<bool> stop{false};
  LoopState loop(fn, n, grain, chunks, threads_, &stop);
  // Helper tickets: claimed by idle workers (or threads helping in their
  // own Wait). Each ticket drains from the claiming thread's home
  // region, so affinity follows the executing thread, not the ticket.
  // A throwing chunk flips `stop` so every participant quits claiming.
  auto drain = [&loop, &stop, impl = impl_] {
    try {
      loop.Drain(HomeRegion(impl, loop.regions));
    } catch (...) {
      stop.store(true, std::memory_order_relaxed);
      throw;
    }
  };
  const std::int64_t helpers =
      std::min<std::int64_t>(threads_ - 1, chunks - 1);
  for (std::int64_t h = 0; h < helpers; ++h) group.Spawn(drain);
  try {
    loop.Drain(HomeRegion(impl_, loop.regions));  // the caller participates
  } catch (...) {
    // Stop helpers claiming further chunks, quiesce, then propagate.
    stop.store(true, std::memory_order_relaxed);
    group.Wait();
    throw;
  }
  group.Wait();
}

// ---------------------------------------------------------------------------
// Global pool

namespace {
Mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool XFLOW_GUARDED_BY(g_global_mu);
}  // namespace

int ThreadPool::ResolveGlobalThreads() {
  const int env = EnvThreads();
  return env > 0 ? env : std::min(HardwareThreads(), kMaxThreads);
}

ThreadPool& ThreadPool::Global() {
  MutexLock lock(g_global_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(ResolveGlobalThreads());
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(std::int64_t threads) {
  const int checked = CheckedThreads(threads);
  MutexLock lock(g_global_mu);
  if (g_global_pool) {
    require(g_global_pool->impl_->active_groups.load(
                std::memory_order_acquire) == 0,
            "ThreadPool::SetGlobalThreads: cannot resize the pool while "
            "task groups or parallel loops are active on it; wait for "
            "in-flight work to finish first");
  }
  g_global_pool = std::make_unique<ThreadPool>(checked);
}

void ParallelFor(std::int64_t n, std::int64_t grain,
                 FunctionRef<void(std::int64_t)> fn) {
  ThreadPool::Global().ParallelFor(n, grain, fn);
}

void* ThreadScratch(std::size_t bytes) {
  // One arena per OS thread (pool workers and application threads alike),
  // grown monotonically: kernels request tile-sized buffers repeatedly, so
  // after warm-up this never allocates on the hot path. Only stable
  // within a chunk body -- see the header contract.
  thread_local std::vector<std::byte> arena;
  if (arena.size() < bytes) arena.resize(bytes);
  return arena.data();
}

}  // namespace xflow
