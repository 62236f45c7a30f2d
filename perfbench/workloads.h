/**
 * @file
 * The benchmark's two workloads. Each builds its inputs from the
 * run seed, sets up its serving pipeline several times (setup_s is
 * the median), computes a reference digest per distinct input
 * through the replay path, then serves for the run length with
 * tracing off and checks every served output. With RunOptions::trace
 * set it also replays the served requests layer by layer and reports
 * the per-layer metrics instead of the end-to-end ones.
 *
 *   scene-seg     closed loop, one client: 32k-point indoor scenes
 *                 through pointnet2-semseg (Delayed, Fractal th=256),
 *                 1 shard x 4 threads, collected with waitInto.
 *   scene-ingest  offline batch: an .fcpc file of 128k-point scenes
 *                 streamed by StorageIngestor::runAll through a fresh
 *                 reader each epoch, point ops only, Fractal th=256,
 *                 1 shard x 4 threads.
 */
#ifndef FC_PERFBENCH_WORKLOADS_H
#define FC_PERFBENCH_WORKLOADS_H

#include "bench.h"

namespace fcb {

Report sceneSeg(const RunOptions &options);
Report sceneIngest(const RunOptions &options);

} // namespace fcb

#endif // FC_PERFBENCH_WORKLOADS_H
