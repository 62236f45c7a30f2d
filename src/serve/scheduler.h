/**
 * @file
 * The serving scheduler: sharded, priority-aware admission with
 * per-request deadlines, cooperative cancellation, and the
 * work-conserving (cross-shard) spill policy.
 *
 * The Scheduler owns no threads — it is the pure bookkeeping core of
 * fc::serve::AsyncPipeline, which pairs it with one ThreadPool per
 * shard. Executors (the pool tasks that run requests) interact with
 * it through a narrow protocol:
 *
 *   trySubmit/submitBlocking  admit one request: consistent-hash
 *                             placement picks its shard, its priority
 *                             class picks its queue (bounded;
 *                             trySubmit fails when full),
 *   acquire(shard)            pop the best head of one shard's
 *                             priority queues and check out one of
 *                             that shard's result slots and one of
 *                             its reset workspaces for it (the Job's
 *                             `result` and `workspace`); requests
 *                             already cancelled or past their
 *                             deadline are retired here without
 *                             running, and get neither,
 *   checkpoint                mid-run cancel/deadline probe at stage
 *                             boundaries; retires the request when it
 *                             answers false,
 *   complete(id)/fail         terminal transitions, and
 *   poll/state/waitInto/cancel/discard  the client-facing side;
 *                             waitInto is the one way to consume a
 *                             ticket.
 *
 * Per-request resources: each shard owns a slab of capacity-retaining
 * BatchResults (result slots) and one of core::Workspaces (request
 * intermediates), guarded by the scheduler mutex like every other
 * transition, and checked out when a request starts running. The
 * workspace returns at EVERY retirement, Done included, in the
 * critical section that publishes the terminal state, so a waiter
 * that observes the outcome finds it back and a shard never holds
 * more workspaces than threads. The result slot returns when the
 * request retires anything but Done; a Done request keeps it until
 * waitInto swaps the payload out (the caller's old buffers return
 * with the slot) or discard reclaims the record. Queued requests
 * hold neither.
 *
 * Placement: each request hashes onto a shard via core::ShardMap —
 * by its ticket id by default (spreads uniform traffic evenly), or by
 * a caller-supplied placement key (pins a client/session to one shard
 * so repeated requests keep hitting the same warm workspaces). The
 * mapping is a pure function of (key, shard count): deterministic
 * across runs, stable under shard-count growth for all but ~1/(N+1)
 * of keys. Placement never affects results — every stage is
 * deterministic with respect to its pool — only locality and load.
 *
 * Priority classes with weighted aging: each shard keeps one FIFO per
 * class (Interactive / Batch / Background). Every acquire() first
 * ages all non-empty classes by their weight, then pops the class
 * with the highest accumulated credit (ties to the more interactive
 * class) and zeroes its credit. Backlogged classes therefore share
 * the shard in proportion to their weights (8:4:1), and a Background
 * request under sustained Interactive load is delayed by at most
 * ceil(w_I / w_G) + 1 = 9 pops — aged forward, never starved. Within
 * a class, strict FIFO. A single-class workload (e.g. everything
 * Interactive, the default) degenerates to exactly the PR 2 FIFO.
 *
 * Work-conserving spill, always on: acquire() marks a request
 * with a spill shard when idle capacity exists — its own shard when
 * in-flight requests there number fewer than the shard's threads,
 * else the lowest-indexed FULLY idle other shard. The executor
 * dispatches the request's intra-cloud block items onto that shard's
 * pool instead of running them inline; one busy shard can therefore
 * borrow a drained neighbor's cores. Only idle neighbors are
 * borrowed because pool workers prefer the fork/join (chunk) lane:
 * foreign chunks on a shard with queued requests of its own would
 * run ahead of them — a priority inversion. checkpoint()
 * re-evaluates the target from scratch at every stage boundary
 * (where all of the request's chunks have joined), so borrows end
 * one stage after the neighbor receives its own work, and freed
 * capacity anywhere is filled one stage later. Every block op is
 * deterministic with respect to its pool, so the decision affects
 * wall-clock only, never results.
 */

#ifndef FC_SERVE_SCHEDULER_H
#define FC_SERVE_SCHEDULER_H

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/shard_map.h"
#include "core/workspace.h"
#include "dataset/point_cloud.h"

namespace fc::serve {

/** Steady clock used for deadlines and latency accounting. */
using Clock = std::chrono::steady_clock;

/** Opaque handle to a submitted request. id 0 is never issued. */
struct Ticket
{
    std::uint64_t id = 0;
};

/** Lifecycle of a request. */
enum class RequestState : std::uint8_t {
    Queued,    ///< admitted, waiting for a worker
    Running,   ///< a worker is processing it
    Done,      ///< finished; outcome carries the result
    Cancelled, ///< retired by cancel() before finishing
    Expired,   ///< retired because its deadline passed
    Failed,    ///< processing threw; outcome carries the message
};

const char *stateName(RequestState state);

/** Done / Cancelled / Expired / Failed. */
bool isTerminal(RequestState state);

/**
 * Admission priority class. Lower value = more interactive. Classes
 * share each shard in proportion to their aging weights; no class
 * can starve (see file comment).
 */
enum class Priority : std::uint8_t {
    Interactive = 0, ///< latency-sensitive foreground traffic
    Batch = 1,       ///< bulk work with throughput targets
    Background = 2,  ///< best-effort (re-indexing, prefetch, ...)
};

inline constexpr unsigned kNumPriorities = 3;

/** Aging weight per class: relative share of a backlogged shard. */
inline constexpr std::array<std::uint64_t, kNumPriorities>
    kPriorityWeight = {8, 4, 1};

const char *priorityName(Priority priority);

/** Steady-clock milestones of one request (for latency accounting). */
struct RequestTiming
{
    Clock::time_point submitted;
    Clock::time_point started; ///< == finished for never-run requests
    Clock::time_point finished;
};

/** Terminal outcome of a request, filled once by waitInto(). */
struct RequestOutcome
{
    RequestState state = RequestState::Cancelled;

    /** Identical to the blocking path's output; valid when Done. */
    BatchResult result;

    /** Exception message; non-empty only when Failed. */
    std::string error;

    /** The original exception, for callers (like runBatch) that want
     *  to rethrow it; non-null only when Failed. */
    std::exception_ptr exception;

    RequestTiming timing;

    /** Class the request was admitted under. */
    Priority priority = Priority::Interactive;

    /** Shard the request was placed on. */
    unsigned shard = 0;

    /** Whether the work-conserving policy spilled this request's
     *  intra-cloud block items onto a pool (its own shard's or a
     *  drained neighbor's) for at least one stage. */
    bool spilled = false;
};

/**
 * Thread-safe request ledger (see file comment for the protocol).
 *
 * Task/record pairing: executors do not acquire a *specific* request
 * — acquire(shard) hands out the best queued request of that shard
 * under the priority policy. AsyncPipeline enqueues exactly one
 * executor task on shard s's pool per request admitted to shard s,
 * so counts always match even when task and record insertion
 * interleave across submitter threads.
 */
class Scheduler
{
  public:
    /** What an executor needs to process one request. */
    struct Job
    {
        std::uint64_t id = 0;

        /** The input, moved out of the record: the executor holds the
         *  only serve-side reference and drops it before complete()
         *  or fail(), so a waiter woken by Done or Failed never keeps
         *  the cloud (or a zero-copy cloud's file mapping) alive. */
        std::shared_ptr<const data::PointCloud> cloud;

        BatchRequest request;

        /** Shard this request was placed on (== the acquiring
         *  executor's shard). */
        unsigned shard = 0;

        /** Shard whose pool should run this request's block items;
         *  negative = run inline. Equals `shard` for a same-shard
         *  spill, another index for a cross-shard borrow. */
        int spill_shard = -1;

        /** The result slot to write into. Owned by the scheduler;
         *  valid until the request's terminal transition. Its stale
         *  content from an earlier request must be overwritten. */
        BatchResult *result = nullptr;

        /** The request's workspace, reset (arena rewound, slots
         *  warm). Owned by the scheduler; returned to the shard by
         *  the terminal transition, so the executor must not touch
         *  it after checkpoint() answers false, complete() or
         *  fail(). */
        core::Workspace *workspace = nullptr;
    };

    /**
     * @param queue_capacity  max requests waiting (Queued) at once,
     *                        summed over all shards and classes
     * @param num_threads     per-shard pool size the spill policy
     *                        compares with
     * @param num_shards      shards (placement targets)
     * @param registry        when non-null, the scheduler registers
     *                        and maintains its serving telemetry
     *                        (per-(shard x class) queue depth, wait
     *                        and latency histograms, pop/spill/borrow
     *                        and outcome counters, result-slot and
     *                        workspace checkouts and slab sizes) in
     *                        it; must outlive the scheduler
     */
    Scheduler(std::size_t queue_capacity, unsigned num_threads,
              unsigned num_shards = 1,
              core::metrics::Registry *registry = nullptr);

    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Admit one request. Fails (nullopt) when the queue is at
     * capacity or the scheduler is shutting down.
     *
     * @param deadline relative to now; the request is retired as
     *        Expired if a worker would start or continue it after
     *        submit time + deadline.
     * @param priority admission class (see Priority).
     * @param placement_key 0 = place by ticket id (uniform spread);
     *        any other value is hashed so equal keys land on equal
     *        shards (client/session affinity).
     * @param shard_out when non-null, receives the placement shard —
     *        the caller (AsyncPipeline) needs it to enqueue the
     *        executor task on that shard.
     */
    std::optional<Ticket>
    trySubmit(std::shared_ptr<const data::PointCloud> cloud,
              const BatchRequest &request,
              std::optional<Clock::duration> deadline,
              Priority priority = Priority::Interactive,
              std::uint64_t placement_key = 0,
              unsigned *shard_out = nullptr);

    /** Like trySubmit, but blocks until queue space frees up. Fails
     *  only when the scheduler shuts down while waiting. */
    std::optional<Ticket>
    submitBlocking(std::shared_ptr<const data::PointCloud> cloud,
                   const BatchRequest &request,
                   std::optional<Clock::duration> deadline,
                   Priority priority = Priority::Interactive,
                   std::uint64_t placement_key = 0,
                   unsigned *shard_out = nullptr);

    /**
     * Pop the best queued request of @p shard (must be non-empty:
     * one executor task exists per request admitted to the shard).
     * Aging credits are charged and the winning class's head is
     * popped. Returns the job to run, with a result slot and a reset
     * workspace checked out of @p shard's slabs, or nullopt when that
     * request was already cancelled or past its deadline — the record
     * is retired (Cancelled/Expired) and the executor has nothing to
     * do.
     */
    std::optional<Job> acquire(unsigned shard = 0);

    /**
     * Mid-run probe, called between stages of a Running request.
     * Returns true to continue; false means the request was just
     * retired (Cancelled or Expired) and the executor must stop.
     *
     * When continuing and @p spill_shard is non-null, the
     * work-conserving decision is re-evaluated from scratch into it
     * (-1 = run inline): a request acquired at saturation starts
     * spilling once capacity frees up anywhere, a borrowed neighbor
     * is released once it has work of its own, and a saturated pool
     * stops being fought over. Safe to change per stage — at a
     * boundary every chunk of the request has already joined.
     */
    bool checkpoint(std::uint64_t id, int *spill_shard = nullptr);

    /**
     * Terminal transition: the request finished, its Job's result
     * slot holds the payload. The workspace returns to its shard; the
     * slot stays with the record until the consuming waitInto() or,
     * for abandoned/discarded tickets, until retirement reclaims the
     * record.
     */
    void complete(std::uint64_t id);

    /** Terminal transition: processing threw @p exception. The
     *  request's result slot and workspace return to its shard. */
    void fail(std::uint64_t id, std::exception_ptr exception);

    /**
     * Request cancellation. Queued work is retired when its executor
     * task pops it; running work stops at its next checkpoint().
     * Returns false when the request already reached a terminal
     * state (or the ticket was consumed by waitInto()).
     *
     * true means "cancellation requested", not "will not complete":
     * a request past its last stage checkpoint still retires Done,
     * so callers must branch on the terminal state from waitInto(),
     * not on cancel()'s return value.
     */
    bool cancel(Ticket ticket);

    /** True once the request is in a terminal state. */
    bool poll(Ticket ticket) const;

    /** Current state of a live (not yet consumed) ticket. */
    RequestState state(Ticket ticket) const;

    /**
     * Block until the request is terminal, then consume the ticket
     * into @p out. Each ticket is consumed exactly once.
     *
     * A Done payload is swapped with the result slot's: @p out takes
     * the finished result, and the slot returns to its shard holding
     * @p out's previous buffers. A reused @p out therefore hands its warm
     * capacity back to the slab — a warm same-shape submitShared ->
     * waitInto loop performs zero heap allocations end to end — and
     * a fresh one leaves the slot empty. Any other terminal state
     * leaves out.result empty. @p out never aliases slab memory.
     *
     * With @p timeout, blocks at most that long: false means the
     * request is still pending, @p out is untouched, and the ticket
     * stays live — the request is NOT cancelled (it keeps its queue
     * position or keeps running), and the caller may wait again,
     * cancel, or discard. Returns true once the ticket is consumed.
     */
    bool waitInto(Ticket ticket, RequestOutcome &out,
                  std::optional<Clock::duration> timeout = std::nullopt);

    /**
     * Give up on a ticket without collecting its outcome: requests
     * still pending are flagged for cancellation, and the record is
     * reclaimed the moment it retires (immediately if already
     * terminal). A fire-and-forget or cancel-and-forget client must
     * call this (or waitInto()) for every ticket, or abandoned records
     * accumulate for the scheduler's lifetime. Idempotent; safe on
     * already-consumed tickets.
     */
    void discard(Ticket ticket);

    std::size_t queuedCount() const;
    std::size_t runningCount() const;

    /** Per-shard counters (serving telemetry, shard-balance tests). */
    std::size_t queuedCount(unsigned shard) const;
    std::size_t runningCount(unsigned shard) const;

    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Records currently held (pending + terminal-but-uncollected);
     *  serving telemetry and leak tests read this. */
    std::size_t liveRecordCount() const;

    /** Result slots created so far, summed over shards: bounded by
     *  the peak of running requests plus unconsumed Done tickets. */
    std::size_t outcomeSlotsCreated() const;

    /** Workspaces created so far, summed over shards or by
     *  @p shard alone: stops growing once every concurrent executor
     *  has one (sequential traffic reports 1), never above the
     *  shard's thread count. */
    std::size_t workspacesCreated() const;
    std::size_t workspacesCreated(unsigned shard) const;

    /**
     * Reject new submissions, flag all queued requests for
     * cancellation, and block until no request is Queued or Running
     * (i.e. every executor task has retired its request). Called by
     * ~AsyncPipeline before the pools are destroyed.
     */
    void shutdown();

  private:
    struct Record
    {
        RequestState state = RequestState::Queued;
        bool cancel_requested = false;
        std::shared_ptr<const data::PointCloud> cloud;
        BatchRequest request;
        std::optional<Clock::time_point> deadline;
        RequestTiming timing;
        std::string error;
        std::exception_ptr exception;
        Priority priority = Priority::Interactive;
        unsigned shard = 0;
        int spill_shard = -1;   ///< current spill pool (-1 = inline)
        bool spilled = false;   ///< spilled for at least one stage
        bool abandoned = false; ///< discard()ed; reclaim on retire

        /** Result slot, checked out at acquire; held while Running
         *  and, once Done, until the record is consumed or
         *  reclaimed. Null otherwise. */
        BatchResult *result = nullptr;

        /** Workspace, checked out at acquire and held only while
         *  Running. Null otherwise. */
        core::Workspace *workspace = nullptr;

        /** Return to a just-constructed state while KEEPING the
         *  capacity of request and error — recycled records make the
         *  next admission allocation-free. */
        void
        reset()
        {
            state = RequestState::Queued;
            cancel_requested = false;
            cloud.reset();
            // `request` keeps its buffers: the next submit
            // copy-assigns over it.
            deadline.reset();
            timing = RequestTiming{};
            error.clear();
            exception = nullptr;
            spill_shard = -1;
            spilled = false;
            abandoned = false;
            result = nullptr;
            workspace = nullptr;
        }
    };

    /** Every object of one kind a shard ever created, and the subset
     *  currently free. A returned object keeps the capacity of
     *  whatever buffers it holds, which is what drives warm
     *  serve-path allocations to zero. */
    template <typename T>
    struct Slab
    {
        std::vector<std::unique_ptr<T>> all;
        std::vector<T *> free;

        /** Pop a free object, or grow the slab when none is. */
        T *
        checkout()
        {
            if (free.empty()) {
                all.push_back(std::make_unique<T>());
                return all.back().get();
            }
            T *item = free.back();
            free.pop_back();
            return item;
        }
    };

    /** Queues, aging credits, in-flight counters, and the result and
     *  workspace slabs of one shard. */
    struct ShardState
    {
        std::array<core::Ring<std::uint64_t>, kNumPriorities> queues;
        std::array<std::uint64_t, kNumPriorities> credit{};
        std::size_t queued = 0;
        std::size_t running = 0;
        Slab<BatchResult> results;
        Slab<core::Workspace> workspaces;
    };

    /** Instruments of one (shard, class) cell; null without a
     *  registry. Mutated under mutex_ (the instruments themselves are
     *  lock-free; the lock is the scheduler's own). */
    struct ClassMetrics
    {
        core::metrics::Gauge *queue_depth = nullptr;
        core::metrics::Histogram *queue_depth_hist = nullptr;
        core::metrics::Histogram *wait_us = nullptr;
        core::metrics::Histogram *latency_us = nullptr;
        core::metrics::Counter *pops = nullptr;
        core::metrics::Counter *submitted = nullptr;
        core::metrics::Counter *completed = nullptr;
        core::metrics::Counter *expired = nullptr;
        core::metrics::Counter *cancelled = nullptr;
        core::metrics::Counter *failed = nullptr;
    };

    /** Per-shard instrument block. */
    struct ShardMetrics
    {
        std::array<ClassMetrics, kNumPriorities> classes;
        core::metrics::Counter *spill_same = nullptr;
        core::metrics::Counter *borrow_out = nullptr;
        core::metrics::Counter *borrow_in = nullptr;
        core::metrics::Counter *outcome_checkout = nullptr;
        core::metrics::Gauge *outcome_created = nullptr;
        core::metrics::Gauge *workspace_created = nullptr;
    };

    /** Retire a non-terminal record as Cancelled/Expired/Done/Failed
     *  (mutex held). Drops the cloud reference, returns the workspace,
     *  returns the result slot unless Done, wakes waiters, and erases
     *  the record if it was abandoned — callers must not touch
     *  @p record afterwards. */
    void retireLocked(std::uint64_t id, Record &record,
                      RequestState state);

    /** Work-conserving target for a request on @p shard (mutex
     *  held): own shard if it has idle threads, else a FULLY idle
     *  other shard — the one with the fewest active borrowers,
     *  lowest index on ties — else -1. Merely under-loaded
     *  neighbors are never borrowed (see file comment: priority
     *  inversion). */
    int spillShardLocked(unsigned shard) const;

    /** Point @p record's spill target at @p target (mutex held),
     *  keeping the per-shard borrow counters and the ever-spilled
     *  flag in sync. Every spill_shard transition goes through
     *  here — acquire, checkpoint, and retirement. */
    void assignSpillLocked(Record &record, int target);

    /** Consume a terminal record into @p out (mutex held): a Done
     *  payload is swapped with the result slot's; any other state
     *  leaves @p out an empty result. Then the record is reclaimed. */
    void consumeIntoLocked(std::uint64_t id, Record &record,
                           RequestOutcome &out);

    /** Take @p id's record out of the ledger (mutex held): return
     *  its result slot (if it still holds one), reset() it
     *  capacity-retaining, and stash the map node for the next
     *  admission. Every record leaving records_ goes through here —
     *  warm steady state never touches the map's allocator. */
    void reclaimRecordLocked(std::uint64_t id);

    /** Check a result slot and a reset workspace out of
     *  @p record's shard for it, growing the slabs on first-seen
     *  concurrency (mutex held). */
    void checkoutLocked(Record &record);

    /** Return @p record's result slot, if any, to its shard's free
     *  list (mutex held). */
    void releaseResultLocked(Record &record);

    /** Return @p record's workspace, if any, to its shard's free
     *  list (mutex held). */
    void releaseWorkspaceLocked(Record &record);

    const Record &recordFor(Ticket ticket) const;

    mutable std::mutex mutex_;

    /** One CV for every sleeper: ticket waiters, blocking submitters,
     *  and shutdown(). Transitions are rare next to the work each
     *  request performs, so sharing costs nothing measurable. */
    mutable std::condition_variable cv_;

    const std::size_t capacity_;
    const unsigned num_threads_;

    core::ShardMap shard_map_;
    std::vector<ShardState> shards_;

    /** One instrument block per shard; empty without a registry. */
    std::vector<ShardMetrics> metrics_;

    /** Active cross-shard borrowers per shard (requests currently
     *  spilling their chunks onto it from another shard); spreads
     *  concurrent borrows over idle shards instead of piling them
     *  onto the lowest index. */
    std::vector<std::size_t> borrows_;

    std::uint64_t next_id_ = 1;
    std::unordered_map<std::uint64_t, Record> records_;

    /** Reclaimed map nodes (capacity-retaining Records inside);
     *  trySubmit re-keys and re-inserts these instead of allocating.
     *  Depth tracks the high-water mark of concurrently live
     *  tickets. */
    std::vector<std::unordered_map<std::uint64_t, Record>::node_type>
        record_nodes_;

    std::size_t queued_ = 0;
    std::size_t running_ = 0;
    bool shutdown_ = false;
};

} // namespace fc::serve

#endif // FC_SERVE_SCHEDULER_H
