/**
 * @file
 * The block-parallel execution runtime.
 *
 * The paper's premise is that fractal partitioning turns every point
 * operation into independent per-block work items; this header is
 * where that parallelism actually runs. It provides:
 *
 *   - ThreadPool: a fixed-size pool (no work stealing) shared by the
 *     partitioner, the block-wise ops, and the batched pipeline API.
 *   - TaskGroup: structured fork/join on a pool. Waiting threads help
 *     drain the queue, so tasks may safely submit subtasks (needed by
 *     the recursive partition builders).
 *   - parallelFor / parallelReduce: chunked loops whose chunk
 *     boundaries depend only on (begin, end, grain) — never on the
 *     thread count — so reductions folded in chunk order are
 *     deterministic and results are bit-identical to the sequential
 *     path at any thread count.
 *
 * A null pool (or a pool of one thread) is the exact sequential path:
 * chunks run inline, in order, on the calling thread.
 */

#ifndef FC_CORE_PARALLEL_H
#define FC_CORE_PARALLEL_H

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/workspace.h"

namespace fc::core {

/**
 * Fixed-capacity small-buffer callable: the task slot of the pooled
 * dispatch path.
 *
 * Chunk tasks used to be std::function, whose capture blocks exceed
 * its small-buffer optimization and heap-allocate one closure per
 * chunk — the last allocation on the pooled steady-state path.
 * InlineTask stores callables up to kStorageBytes directly in the
 * slot (every chunk closure the runtime produces fits); oversized or
 * throwing-move callables fall back to a heap box, preserving
 * correctness for arbitrary user tasks.
 *
 * Move-only. A task is invoked at most once; destruction (not
 * invocation) releases the callable.
 */
class InlineTask
{
  public:
    /** Sized for the largest runtime closure (a partition builder's
     *  fork: this + slice bounds + an Aabb cell + a record pointer,
     *  plus the TaskGroup wrapper's bookkeeping). */
    static constexpr std::size_t kStorageBytes = 96;

    InlineTask() = default;

    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<Fn>, InlineTask>>>
    explicit InlineTask(Fn &&fn)
    {
        using Decayed = std::decay_t<Fn>;
        if constexpr (sizeof(Decayed) <= kStorageBytes &&
                      alignof(Decayed) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Decayed>) {
            ::new (static_cast<void *>(storage_))
                Decayed(std::forward<Fn>(fn));
            vtable_ = &inlineVTable<Decayed>;
        } else {
            // Heap fallback: the slot holds one owning pointer.
            ::new (static_cast<void *>(storage_)) Decayed *(
                new Decayed(std::forward<Fn>(fn)));
            vtable_ = &heapVTable<Decayed>;
        }
    }

    InlineTask(InlineTask &&other) noexcept { moveFrom(other); }

    InlineTask &
    operator=(InlineTask &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineTask(const InlineTask &) = delete;
    InlineTask &operator=(const InlineTask &) = delete;

    ~InlineTask() { reset(); }

    explicit operator bool() const { return vtable_ != nullptr; }

    void
    operator()()
    {
        vtable_->invoke(storage_);
    }

  private:
    struct VTable
    {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src, destroying src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Decayed>
    static constexpr VTable inlineVTable = {
        [](void *p) { (*std::launder(reinterpret_cast<Decayed *>(p)))(); },
        [](void *dst, void *src) {
            Decayed *from = std::launder(reinterpret_cast<Decayed *>(src));
            ::new (dst) Decayed(std::move(*from));
            from->~Decayed();
        },
        [](void *p) {
            std::launder(reinterpret_cast<Decayed *>(p))->~Decayed();
        },
    };

    template <typename Decayed>
    static constexpr VTable heapVTable = {
        [](void *p) {
            (**std::launder(reinterpret_cast<Decayed **>(p)))();
        },
        [](void *dst, void *src) {
            ::new (dst) Decayed *(
                *std::launder(reinterpret_cast<Decayed **>(src)));
        },
        [](void *p) {
            delete *std::launder(reinterpret_cast<Decayed **>(p));
        },
    };

    void
    moveFrom(InlineTask &other) noexcept
    {
        vtable_ = other.vtable_;
        if (vtable_ != nullptr) {
            vtable_->relocate(storage_, other.storage_);
            other.vtable_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (vtable_ != nullptr) {
            vtable_->destroy(storage_);
            vtable_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kStorageBytes];
    const VTable *vtable_ = nullptr;
};

/**
 * Growable FIFO ring: the thread pool's two task lanes and the
 * serving scheduler's per-(shard x class) request queues.
 *
 * Capacity doubles on overflow and is never returned, so a queue
 * that has seen its peak backlog pushes and pops without touching
 * the heap: the allocation-free steady state of the workspace layer
 * (core/workspace.h) extends to pooled dispatch and warm admission.
 * Not thread-safe; owners guard it with their own mutex.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** i-th queued element from the front. */
    const T &
    at(std::size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    template <typename U>
    void
    push(U &&value)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & mask_] = std::forward<U>(value);
        ++size_;
    }

    /** Remove and return the front element (must be non-empty). */
    T
    pop()
    {
        T value = std::move(slots_[head_]);
        head_ = (head_ + 1) & mask_;
        --size_;
        return value;
    }

  private:
    void
    grow()
    {
        const std::size_t capacity =
            std::max<std::size_t>(64, slots_.size() * 2);
        std::vector<T> next(capacity);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(slots_[(head_ + i) & mask_]);
        slots_ = std::move(next);
        mask_ = capacity - 1;
        head_ = 0;
    }

    std::vector<T> slots_; ///< power-of-two capacity
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/**
 * Fixed-size thread pool with two FIFO lanes:
 *
 *   - the fork/join lane (TaskGroup::run): chunk-sized tasks that a
 *     waiter is allowed to help drain, and
 *   - the detached lane (submitDetached): whole-request tasks with no
 *     joiner, run only by dedicated workers.
 *
 * Workers prefer the fork/join lane — chunks unblock waiters and keep
 * spilled requests low-latency — and a TaskGroup waiter never touches
 * the detached lane, so helping can't nest an unrelated full request
 * (and its latency/deadline) onto a waiter's stack.
 *
 * In fork/join mode the pool owns num_threads - 1 worker threads; the
 * thread that waits on a TaskGroup acts as the final worker
 * (help-join), so a pool of n threads keeps exactly n threads busy
 * and a pool of 1 spawns none.
 *
 * Workers can optionally be pinned to cpus (the @p pin_cpus
 * constructor argument): worker t binds to pin_cpus[t % size] at
 * startup, best-effort (see core/topology.h — a refused affinity
 * call degrades to an unpinned worker, never an error). The caller
 * thread of a fork/join pool is never pinned: only spawned workers
 * are.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads 0 = all hardware threads, n = exactly n.
     * @param standalone  false (fork/join use): spawn num_threads - 1
     *     workers and count the thread that waits on a TaskGroup as
     *     the final worker. true (serving use, see fc::serve): the
     *     pool hosts detached work with no external joining thread,
     *     so it spawns exactly num_threads workers.
     * @param pin_cpus    optional cpu ids to pin spawned workers to
     *     (worker t -> pin_cpus[t % size]); empty = no pinning.
     *     serve::AsyncPipeline passes each shard's pool a disjoint
     *     set so shard arenas stay in one socket's pages.
     */
    explicit ThreadPool(unsigned num_threads = 0,
                        bool standalone = false,
                        std::vector<int> pin_cpus = {});
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Resolved thread count (>= 1). */
    unsigned numThreads() const { return num_threads_; }

    /**
     * Enqueue a fire-and-forget task at the tail of the detached
     * lane. Unlike TaskGroup::run there is no join: the caller must
     * guarantee every detached task has finished before the pool is
     * destroyed (the serving layer tracks this via its Scheduler).
     *
     * Small callables ride the detached lane's InlineTask ring
     * without touching the heap — with the scheduler-owned
     * workspaces and result slots of fc::serve this keeps the whole warm
     * submit->poll round trip allocation-free.
     */
    template <typename Fn>
    void
    submitDetached(Fn &&task)
    {
        submitDetachedTask(InlineTask(std::forward<Fn>(task)));
    }

    /** 0 -> hardware concurrency (min 1), n -> n. */
    static unsigned resolveThreadCount(unsigned requested);

  private:
    friend class TaskGroup;

    /** Push one chunk task onto the fork/join lane and wake a
     *  worker. The InlineTask slot keeps the push allocation-free
     *  once the ring has grown to its peak backlog. */
    void enqueueForkJoin(InlineTask task);

    /** Out-of-line body of submitDetached. */
    void submitDetachedTask(InlineTask task);

    void workerLoop();

    unsigned num_threads_;
    std::vector<int> pin_cpus_; ///< empty = unpinned workers
    std::vector<std::thread> workers_;
    Ring<InlineTask> queue_;    ///< fork/join lane
    Ring<InlineTask> detached_; ///< detached lane (whole-request tasks)
    std::mutex mutex_;
    std::condition_variable work_cv_;
    bool stop_ = false;
};

/**
 * A set of tasks forked onto a pool and joined together.
 *
 * run() enqueues a task (or runs it inline when the pool is null or
 * single-threaded); wait() drains queued tasks while waiting — nested
 * submission from inside a task therefore cannot deadlock — and
 * rethrows the first exception any task raised.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool *pool);
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Fork one task. Small callables ride the pool's inline task
     * slots without touching the heap (see InlineTask); the template
     * also keeps the sequential path free of any std::function
     * materialization.
     */
    template <typename Fn>
    void
    run(Fn &&fn)
    {
        if (pool_ == nullptr) {
            // Sequential path: run now, on this thread, in submission
            // order. Exceptions are recorded and rethrown at wait() so
            // both paths observe identical semantics.
            try {
                fn();
            } catch (...) {
                record(std::current_exception());
            }
            return;
        }
        pending_.fetch_add(1, std::memory_order_acq_rel);
        // The group lives on the waiter's stack and may be destroyed
        // the instant pending_ reaches zero; the final notification
        // must go through a by-value pool pointer, not through
        // `this`.
        pool_->enqueueForkJoin(InlineTask(
            [this, pool = pool_, fn = std::forward<Fn>(fn)]() mutable {
                try {
                    fn();
                } catch (...) {
                    record(std::current_exception());
                }
                finish(pool);
            }));
    }

    /** Join all forked tasks; rethrows the first recorded exception. */
    void wait();

  private:
    void record(std::exception_ptr e);

    /** Decrement pending_ under the pool mutex (so a waiter holding
     *  it cannot miss the final notification) and wake waiters. Last
     *  access to `this`. */
    void finish(ThreadPool *pool);

    ThreadPool *pool_; ///< null = inline execution
    std::atomic<std::size_t> pending_{0};
    std::mutex exception_mutex_;
    std::exception_ptr exception_;
};

namespace detail {

/** Non-owning callable reference: parallelFor hands its body to the
 *  out-of-line chunk dispatcher through one of these, so no
 *  std::function (and no closure allocation) ever materializes on the
 *  pooled path. The referent must outlive the dispatch — parallelFor
 *  keeps it alive on the caller's stack through the join. */
struct ChunkRef
{
    void *ctx;
    void (*call)(void *, std::size_t, std::size_t);
};

} // namespace detail

/** Pooled body of parallelFor (chunks become TaskGroup tasks). */
void parallelForImpl(ThreadPool *pool, std::size_t begin,
                     std::size_t end, std::size_t grain,
                     detail::ChunkRef fn);

/**
 * Chunked parallel loop over [begin, end).
 *
 * The range is cut into fixed chunks of @p grain (the last one
 * shorter); @p fn receives each [chunk_begin, chunk_end). Chunk
 * boundaries are a pure function of the range and grain, so writing
 * per-index or per-chunk slots yields identical memory at any thread
 * count. With a null or single-thread pool the chunks run inline in
 * ascending order — the exact sequential path, which (being a
 * template) also performs zero heap allocations: no std::function is
 * materialized, so the allocation-free steady state of the workspace
 * layer (core/workspace.h) holds through every inline loop.
 */
template <typename Fn>
void
parallelFor(ThreadPool *pool, std::size_t begin, std::size_t end,
            std::size_t grain, Fn &&fn)
{
    if (begin >= end)
        return;
    const std::size_t g = std::max<std::size_t>(1, grain);
    if (pool == nullptr || pool->numThreads() <= 1 ||
        end - begin <= g) {
        for (std::size_t cb = begin; cb < end; cb += g)
            fn(cb, std::min(cb + g, end));
        return;
    }
    parallelForImpl(
        pool, begin, end, g,
        detail::ChunkRef{
            const_cast<void *>(
                static_cast<const void *>(std::addressof(fn))),
            [](void *ctx, std::size_t cb, std::size_t ce) {
                (*static_cast<std::remove_reference_t<Fn> *>(ctx))(cb,
                                                                   ce);
            }});
}

/**
 * Grain (chunk length) targeting roughly @p target_ops scalar
 * operations per chunk for a loop whose every index costs
 * @p ops_per_item operations. A pure function of its arguments —
 * never of the pool or thread count — so loops sized with it keep the
 * bit-identical determinism contract of parallelFor. The network and
 * partition layers use it to pick row/point grains that amortize task
 * overhead for cheap items without starving wide pools on expensive
 * ones.
 */
inline std::size_t
costGrain(std::size_t ops_per_item, std::size_t target_ops = 1 << 15)
{
    return std::max<std::size_t>(
        1, target_ops / std::max<std::size_t>(1, ops_per_item));
}

/**
 * Deterministic chunk-ordered reduction.
 *
 * Computes @p chunk_fn(chunk_begin, chunk_end) -> T per chunk
 * (possibly in parallel), then folds the per-chunk values into
 * @p init strictly in ascending chunk order with
 * @p fold_fn(T &acc, T &&chunk_value). The fold order never depends
 * on the thread count, so even non-commutative merges (e.g. appending
 * per-leaf sample lists) are bit-identical to sequential execution.
 *
 * @p scratch (optional) stages per-chunk values above
 * kReduceInlineChunks: trivially-destructible T draws the staging
 * array from the arena instead of the heap, keeping high-chunk-count
 * reduces (per-leaf block ops, per-center neighbor scans) on the
 * allocation-free warm path. Null, or a non-trivial T, falls back to
 * one heap vector. Chunk boundaries and fold order are unaffected.
 */
/** Pooled parallelReduce stages up to this many per-chunk values on
 *  the caller's stack; larger chunk counts stage in the caller's
 *  arena (when provided) or fall back to one heap vector. Sized so
 *  the hot serving/inference shapes (per-leaf reduces at a few dozen
 *  leaves, extrema scans at kSplitGrain) stay allocation-free warm
 *  even without an arena. */
inline constexpr std::size_t kReduceInlineChunks = 64;

template <typename T, typename ChunkFn, typename FoldFn>
T
parallelReduce(ThreadPool *pool, std::size_t begin, std::size_t end,
               std::size_t grain, T init, ChunkFn chunk_fn,
               FoldFn fold_fn, Arena *scratch = nullptr)
{
    if (begin >= end)
        return init;
    const std::size_t g = std::max<std::size_t>(1, grain);
    if (pool == nullptr || pool->numThreads() <= 1) {
        // Sequential fast path: same chunk boundaries and fold order,
        // but no per-chunk staging at all — the inline loops of the
        // allocation-free steady state never touch the heap.
        for (std::size_t cb = begin; cb < end; cb += g)
            fold_fn(init, chunk_fn(cb, std::min(cb + g, end)));
        return init;
    }
    const std::size_t num_chunks = (end - begin + g - 1) / g;
    const auto reduce_into = [&](T *partial) {
        parallelFor(pool, begin, end, g,
                    [&](std::size_t cb, std::size_t ce) {
                        partial[(cb - begin) / g] = chunk_fn(cb, ce);
                    });
        for (std::size_t c = 0; c < num_chunks; ++c)
            fold_fn(init, std::move(partial[c]));
    };
    if (num_chunks <= kReduceInlineChunks) {
        // Stack staging: the pooled reduce performs zero heap
        // allocations, matching the inline-task dispatch underneath.
        std::array<T, kReduceInlineChunks> partial{};
        reduce_into(partial.data());
        return init;
    }
    T *arena_partial = nullptr;
    if constexpr (std::is_trivially_destructible_v<T>) {
        // Value-construct the staging slots (the fill overload):
        // chunk tasks assign into them, which requires live objects.
        if (scratch != nullptr)
            arena_partial =
                scratch->allocSpan<T>(num_chunks, T{}).data();
    }
    if (arena_partial != nullptr) {
        reduce_into(arena_partial);
    } else {
        std::vector<T> partial(num_chunks);
        reduce_into(partial.data());
    }
    return init;
}

} // namespace fc::core

#endif // FC_CORE_PARALLEL_H
