#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

/**
 * @file
 * Fixed-horizon layer probes for traced runs. Every probe builds fresh
 * state, times a fixed amount of work, repeats that a fixed number of
 * times and returns the median; none of them runs "until the timer is
 * satisfied", so a probe's value does not depend on how long it ran.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Microseconds per empty WorkerPool::parallelFor(n) on @p threads. */
double poolForMicros(int threads, int n, int calls, int reps);

/**
 * Nanoseconds per metrics::Registry::count call as seen by each of
 * @p threads threads, each writing under its own namespace.
 */
double registryCountNs(int threads, int calls, int reps);

/**
 * Nanoseconds per dependent fadd/fmul in the LCP phase at @p bits
 * mantissa bits with jamming (23 = the plain inline path).
 */
double scalarOpNs(int bits, int ops, int reps, uint64_t seed);

/**
 * Microseconds per World::pushCheckpoint on scenario @p name after
 * @p warmSteps steps (ring of 4, full precision).
 */
double checkpointMicros(const std::string &name, int warmSteps,
                        int pushes, int reps);

/** Milliseconds per scen::makeScenario over @p names. */
double scenarioBuildMs(const std::vector<std::string> &names, int reps);

/** One world of an op-counting pass. */
struct CountJob {
    std::string scenario;
    int narrowBits = 23;
    int lcpBits = 23;
    bool controller = true;
    int steps = 0;
};

/** Exact dynamic FP op totals of a counting pass, by phase. */
struct OpCounts {
    uint64_t narrow = 0;
    uint64_t lcp = 0;
    uint64_t steps = 0; //!< world steps stepped by the pass
};

/**
 * Step every job serially on the calling thread with an
 * fp::OpRecorder attached and count ops by phase. Its times are not
 * reported: the recorder forces the modeled slow path.
 */
OpCounts countOps(const std::vector<CountJob> &jobs);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
