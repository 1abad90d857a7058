#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/**
 * @file
 * The four benchmark workloads. Each is a closed loop: one caller
 * submits a fixed round of work, waits for it, checks its outputs and
 * submits the next identical round until the measuring time is spent.
 *
 *  - batch_random:  seeded Random debris worlds at full precision in
 *                   one srv::BatchScheduler::run per round.
 *  - paper_reduced: the 8 paper scenarios at the Table 1 jamming
 *                   minima, one world per run() call, every step timed.
 *  - batch_chaos:   seeded Random worlds under the chaos fault spec and
 *                   the virtual-clock deadline ladder.
 *  - paper_trace:   csim::runExperiment over the 8 scenarios, LCP
 *                   phase, through the Figure 5 design points.
 */

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/** Names of every workload, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** What one invocation produced. */
struct WorkloadResult {
    bool correct = true;
    std::string error;          //!< first correctness failure
    long attempted = 0;         //!< worlds (or scenario runs) attempted
    long failed = 0;            //!< of those, not Completed
    std::vector<Metric> metrics; //!< end-to-end, or per-layer if traced
    /** Human-readable lines printed before the result object. */
    std::vector<std::string> notes;
};

/** Run one workload per @p opts; pinned digests may be empty. */
WorkloadResult runWorkload(const Options &opts, const DigestTable &pinned,
                           Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
