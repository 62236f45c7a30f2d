/**
 * @file
 * fc::serve::AsyncPipeline — the asynchronous serving frontend.
 *
 * serve::runBatch (serve/run_batch.h) is a blocking call. This layer
 * turns the library into a service skeleton:
 *
 *   - submit()/trySubmit() admit one cloud each into a bounded,
 *     priority-classed admission queue and return a Ticket
 *     immediately; trySubmit rejects (nullopt) when the queue is
 *     full. Each request lands on one shard by consistent hashing
 *     (ticket id, or a caller placement key for session affinity)
 *     and in one of three priority classes (Interactive /
 *     Batch / Background) that share each shard 8:4:1 under weighted
 *     aging — bulk traffic cannot starve, interactive traffic keeps
 *     its tail,
 *   - poll()/state() observe a ticket; waitInto() is the one way to
 *     consume it: it blocks (optionally bounded, without cancelling
 *     on timeout) for the terminal RequestOutcome,
 *   - per-request deadlines retire late work as Expired the moment a
 *     worker would otherwise start — or, between stages, continue —
 *     it,
 *   - cancel() retires queued work without running it and interrupts
 *     running work at its next stage boundary, and
 *   - the work-conserving Scheduler spills a request's intra-cloud
 *     block items (partition subtrees, block-wise FPS / neighbor /
 *     gather) into idle slots of its own shard's pool when in-flight
 *     requests there number fewer than the shard's threads;
 *     otherwise requests run one-per-thread. The decision is
 *     re-evaluated at every stage boundary, so the last big request
 *     of a batch starts spilling once its peers finish, and
 *   - per-shard workspaces and result slots, both owned by the
 *     Scheduler (see serve/scheduler.h) and checked out when a
 *     request starts on its placement shard. Every request's
 *     intermediates (partition trees, op scratch, the inference
 *     stage's per-level buffers) draw from a workspace warmed by
 *     earlier requests OF THE SAME SHARD, so with pinned workers its
 *     pages stay on the NUMA node that touched them. The workspace
 *     returns at every retirement, so a shard never holds more than
 *     its thread count and steady-state memory is bounded by the
 *     largest shapes seen. The BatchResult payload lives in the result slot
 *     until the consuming waitInto(), which swaps it with the
 *     caller's: a reused RequestOutcome hands its warm buffers back
 *     to the slot, so a warm same-shape submit -> poll -> waitInto
 *     round trip performs ZERO heap allocations end to end, and a
 *     fresh one leaves the slot empty (it regrows on next use).
 *
 * Results are byte-identical to the blocking path at any thread
 * count: every stage is deterministic with respect to its pool, so
 * scheduling decisions affect wall-clock only.
 *
 * Each request runs the serving stage sequence of runBatch:
 * partition -> block-wise FPS -> ball query -> gather, producing the
 * same BatchResult — plus an optional end-to-end inference stage
 * (BatchRequest::network), whose pool-driven nn::Network::run also
 * spills its internal work items under the same policy.
 */

#ifndef FC_SERVE_ASYNC_PIPELINE_H
#define FC_SERVE_ASYNC_PIPELINE_H

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "serve/scheduler.h"

namespace fc::serve {

/** Stage boundaries of one request, in execution order. */
enum class Stage : std::uint8_t {
    Started,     ///< acquired by a worker, before partitioning
    Partitioned, ///< partition built
    Sampled,     ///< block-wise FPS done
    Grouped,     ///< ball query done
};

/** Configuration of an AsyncPipeline. */
struct ServeOptions
{
    /** Partition method/threshold plus num_threads, which sizes each
     *  shard's pool (0 = hardware). Unlike the blocking pipeline,
     *  num_threads = 1 still spawns one background worker per shard
     *  — requests are processed asynchronously but, within a shard
     *  and a priority class, strictly FIFO, with results identical
     *  to the sequential path. */
    PipelineOptions pipeline;

    /**
     * Shards. 1 (the default) is the single-pool runtime of
     * PR 2-4, unchanged. With N > 1, requests are placed onto shards
     * by consistent hashing (ticket id, or the submit call's
     * placement key for session affinity); each shard has its own
     * num_threads-sized pool and queues, and a request's block items
     * only ever run on its own shard's pool. Results are
     * byte-identical at any shard count.
     */
    unsigned num_shards = 1;

    /** Admission-queue bound: max requests waiting to start, summed
     *  over all shards and priority classes. */
    std::size_t queue_capacity = 64;

    /**
     * Pin each shard's workers to a disjoint cpu set carved from the
     * detected NUMA topology (shard s prefers node s % nodes; see
     * core/topology.h), keeping a shard's workspace and arena pages
     * on the socket that touches them. Best-effort: refused affinity
     * calls (restricted runners, non-Linux) degrade to unpinned
     * workers, and FC_NO_PIN=1 disables pinning at runtime without a
     * rebuild. Never affects results, only locality.
     */
    bool pin_shards = true;

    /**
     * Test/telemetry hook: invoked on the executing worker at every
     * stage boundary of every request, just before that boundary's
     * cancel/deadline checkpoint (so a cancel() issued while the
     * observer runs is honored). Must be thread-safe; leave empty
     * for production use.
     */
    std::function<void(Ticket, Stage)> stage_observer;
};

/**
 * Asynchronous submit/poll/wait serving frontend over
 * ServeOptions::num_shards standalone ThreadPool shards, one per
 * shard the Scheduler places requests on (num_shards = 1 is the
 * single-pool frontend). Shards are fully independent — separate
 * queues, workers and condition variables, no stealing at the pool
 * level; the Scheduler's spill policy decides whether a stage fans
 * out onto its own shard's idle threads.
 *
 * Thread-safe: any thread may submit, poll, cancel, or wait. The
 * destructor rejects new work, cancels everything still queued, and
 * blocks until in-flight requests retire — do not race submissions
 * against destruction.
 */
class AsyncPipeline
{
  public:
    explicit AsyncPipeline(const ServeOptions &options = {});
    ~AsyncPipeline();

    AsyncPipeline(const AsyncPipeline &) = delete;
    AsyncPipeline &operator=(const AsyncPipeline &) = delete;

    /**
     * Admit one cloud; returns nullopt when the admission queue is
     * full (the request is rejected, not queued). @p deadline is
     * relative to now; late work is retired as Expired instead of
     * running.
     *
     * @p priority picks the admission class (see serve::Priority):
     * backlogged classes share each shard 8:4:1
     * (Interactive:Batch:Background) under weighted aging, so bulk
     * traffic cannot starve and interactive traffic keeps its tail.
     * @p placement_key pins placement: 0 spreads requests over
     * shards by ticket id; any fixed key (session id, client id)
     * lands all its requests on one shard's warm workspaces.
     *
     * The cloud is moved into the call and dropped on rejection —
     * a caller that must keep it should use submitShared, which
     * waits for queue space instead of rejecting.
     *
     * Admission allocates (the request record + queue node); the
     * allocation-free guarantee covers the *processing* of warm
     * same-shape requests, not the submit call itself. Results are
     * deterministic: a given (cloud, request) pair produces the same
     * BatchResult regardless of shard, class, or concurrency.
     */
    std::optional<Ticket>
    trySubmit(data::PointCloud cloud, const BatchRequest &request = {},
              std::optional<Clock::duration> deadline = std::nullopt,
              Priority priority = Priority::Interactive,
              std::uint64_t placement_key = 0);

    /** Blocking admission: waits for queue space instead of
     *  rejecting. */
    Ticket
    submit(data::PointCloud cloud, const BatchRequest &request = {},
           std::optional<Clock::duration> deadline = std::nullopt,
           Priority priority = Priority::Interactive,
           std::uint64_t placement_key = 0);

    /**
     * Zero-copy blocking admission for callers that manage cloud
     * lifetime themselves (e.g. runBatch aliases its input vector):
     * the cloud must stay alive until the ticket retires.
     */
    Ticket
    submitShared(std::shared_ptr<const data::PointCloud> cloud,
                 const BatchRequest &request = {},
                 std::optional<Clock::duration> deadline = std::nullopt,
                 Priority priority = Priority::Interactive,
                 std::uint64_t placement_key = 0);

    /** True once the ticket reached a terminal state. */
    bool poll(Ticket ticket) const { return scheduler_.poll(ticket); }

    /** Current state of a live (not yet consumed) ticket. */
    RequestState
    state(Ticket ticket) const
    {
        return scheduler_.state(ticket);
    }

    /**
     * Block until terminal and consume the ticket into @p out — the
     * one consume call. The Done payload is swapped with the result
     * slot's, so a warm same-shape submitShared -> waitInto loop with
     * a reused RequestOutcome performs zero heap allocations on the
     * serve path (bench_memory_churn gates this at exactly 0). With
     * @p timeout, returns false if the request is still pending; the
     * ticket then stays live and is NOT cancelled. See
     * Scheduler::waitInto.
     */
    bool
    waitInto(Ticket ticket, RequestOutcome &out,
             std::optional<Clock::duration> timeout = std::nullopt)
    {
        return scheduler_.waitInto(ticket, out, timeout);
    }

    /** Best-effort cancel; true = requested, not guaranteed — the
     *  request may still retire Done (see Scheduler::cancel). */
    bool cancel(Ticket ticket) { return scheduler_.cancel(ticket); }

    /**
     * Give up on a ticket without collecting its outcome (its record
     * is reclaimed once the request retires). Every ticket must end
     * in exactly one waitInto() or discard() — cancel() alone does not
     * free the bookkeeping. See Scheduler::discard.
     */
    void discard(Ticket ticket) { scheduler_.discard(ticket); }

    /** Resolved per-shard pool size. */
    unsigned numThreads() const { return shards_.front()->numThreads(); }

    /** Shard count. */
    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Whether shard workers are pinned (pin_shards was set, FC_NO_PIN
     *  is unset, and a topology was detected). Individual affinity
     *  calls remain best-effort; this reports the policy, not
     *  per-thread success. */
    bool pinned() const { return pinned_; }

    /** Snapshot of requests admitted but not yet started (all
     *  shards). Allocation-free; racy by nature — use for telemetry,
     *  not control flow. */
    std::size_t queuedCount() const { return scheduler_.queuedCount(); }

    /** Snapshot of requests currently executing (all shards).
     *  Allocation-free; racy by nature. */
    std::size_t runningCount() const
    {
        return scheduler_.runningCount();
    }

    /** Per-shard telemetry. */
    std::size_t
    queuedCount(unsigned shard) const
    {
        return scheduler_.queuedCount(shard);
    }
    std::size_t
    runningCount(unsigned shard) const
    {
        return scheduler_.runningCount(shard);
    }

    /** Workspaces created so far, summed over shards or by
     *  @p shard alone; see Scheduler::workspacesCreated. */
    std::size_t workspacesCreated() const
    {
        return scheduler_.workspacesCreated();
    }
    std::size_t workspacesCreated(unsigned shard) const
    {
        return scheduler_.workspacesCreated(shard);
    }

    /** Result slots created so far, summed over shards: bounded by
     *  running requests plus unconsumed Done tickets. */
    std::size_t outcomeSlotsCreated() const
    {
        return scheduler_.outcomeSlotsCreated();
    }

    /**
     * The pipeline's metrics registry: per-(shard x class) queue
     * depth / wait / latency, result-slot and workspace instruments
     * (Scheduler), per-stage latency histograms and admission
     * rejections (this class), and the inference stage's per-stage
     * nn timings. Render it with
     * serve::renderStats / renderStatsJson (serve/stats.h); mutation
     * cost is governed by core::metrics::setSampling.
     */
    core::metrics::Registry &metrics() { return registry_; }
    const core::metrics::Registry &metrics() const { return registry_; }

    /** Records held (pending + terminal-but-uncollected). */
    std::size_t liveRecordCount() const
    {
        return scheduler_.liveRecordCount();
    }

  private:
    /** Executor task body: process (or retire) the best queued
     *  request of @p shard. */
    void execute(unsigned shard);

    void notifyObserver(std::uint64_t id, Stage stage);

    ServeOptions options_;

    /**
     * Declared first deliberately: every layer below (shard pool
     * workers, scheduler, this class's own instruments) holds
     * pointers into the registry until its workers join, so the
     * registry must be destroyed last.
     */
    core::metrics::Registry registry_;

    /** Per-stage service-time histograms (serve.stage_us{stage=...}),
     *  recorded on the executing worker between stage boundaries. */
    std::array<core::metrics::Histogram *, 5> stage_us_{};

    /** Admission rejections (trySubmit returning nullopt). */
    core::metrics::Counter *rejected_ = nullptr;

    /** One standalone pool per Scheduler shard, same index. Declared
     *  before scheduler_, so destroyed after it; the destructor's
     *  shutdown() has emptied their queues by then. */
    std::vector<std::unique_ptr<core::ThreadPool>> shards_;
    bool pinned_ = false;

    Scheduler scheduler_;
};

} // namespace fc::serve

#endif // FC_SERVE_ASYNC_PIPELINE_H
