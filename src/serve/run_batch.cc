#include "serve/run_batch.h"

#include <exception>
#include <utility>

#include "common/logging.h"
#include "serve/async_pipeline.h"

namespace fc::serve {

std::vector<BatchResult>
runBatch(const std::vector<data::PointCloud> &clouds,
         const PipelineOptions &options, const BatchRequest &request)
{
    fc_assert(request.neighbors > 0, "batch needs neighbors > 0");
    std::vector<BatchResult> results(clouds.size());
    if (clouds.empty())
        return results;

    // Expressed over the async serving path: one ticket per cloud,
    // dispatched over a standalone single-shard pool, with the
    // work-conserving scheduler spilling intra-cloud block items into
    // idle slots when the batch tail leaves threads unoccupied. Every
    // per-cloud result stays bit-identical to a sequential pipeline
    // run of that cloud. Deliberate tradeoff: even num_threads = 1
    // spawns one short-lived worker (the pre-async path ran inline);
    // the ~0.1 ms of thread setup is noise against per-cloud
    // processing, and one code path keeps blocking === async by
    // construction. All requests share one priority class, so the
    // schedule is the strict FIFO the blocking semantics promise.
    ServeOptions serve_options;
    serve_options.pipeline = options;
    serve_options.queue_capacity = clouds.size();
    AsyncPipeline server(serve_options);

    std::vector<Ticket> tickets;
    tickets.reserve(clouds.size());
    for (std::size_t i = 0; i < clouds.size(); ++i) {
        fc_assert(!clouds[i].empty(),
                  "runBatch requires non-empty clouds (cloud %zu is "
                  "empty)",
                  i);
        // Aliasing handle: the caller's vector outlives the server,
        // which drains fully before this function returns.
        tickets.push_back(server.submitShared(
            std::shared_ptr<const data::PointCloud>(
                std::shared_ptr<const data::PointCloud>(), &clouds[i]),
            request));
    }
    for (std::size_t i = 0; i < clouds.size(); ++i) {
        // A fresh outcome: the swap hand-off leaves the slot empty,
        // so each payload is moved, never copied.
        RequestOutcome outcome;
        server.waitInto(tickets[i], outcome);
        // Blocking semantics: a stage exception propagates to the
        // caller exactly as the pre-async runBatch rethrew it.
        if (outcome.state == RequestState::Failed)
            std::rethrow_exception(outcome.exception);
        fc_assert(outcome.state == RequestState::Done,
                  "batch cloud %zu ended %s", i,
                  stateName(outcome.state));
        results[i] = std::move(outcome.result);
    }
    return results;
}

} // namespace fc::serve
