/**
 * @file
 * serve::runBatch — the blocking batch wrapper over the async
 * serving frontend.
 *
 * Partition + sample + group + gather (plus the optional inference
 * stage, BatchRequest::network) for every cloud of a batch, over one
 * pool sized by options.num_threads. Each cloud is one FIFO-dispatched
 * request on a standalone serve::AsyncPipeline, and the
 * work-conserving scheduler spills intra-cloud block items into idle
 * pool slots when in-flight requests number fewer than threads (e.g.
 * the tail of a batch). For non-blocking submit/poll with deadlines,
 * cancellation, shards, and priority classes, use serve::AsyncPipeline
 * directly.
 */

#ifndef FC_SERVE_RUN_BATCH_H
#define FC_SERVE_RUN_BATCH_H

#include <vector>

#include "core/pipeline.h"
#include "dataset/point_cloud.h"

namespace fc::serve {

/**
 * Process @p clouds and block until all are done. Output order
 * matches input order, and every per-cloud result is bit-identical
 * to a sequential FractalCloudPipeline run of that cloud. A stage
 * exception is rethrown to the caller. Every cloud must be non-empty.
 */
std::vector<BatchResult>
runBatch(const std::vector<data::PointCloud> &clouds,
         const PipelineOptions &options = {},
         const BatchRequest &request = {});

} // namespace fc::serve

#endif // FC_SERVE_RUN_BATCH_H
