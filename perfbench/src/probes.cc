#include "probes.h"

#include <atomic>
#include <optional>
#include <thread>

#include "common.h"
#include "csim/metrics.h"
#include "fp/precision.h"
#include "phys/controller.h"
#include "phys/parallel.h"
#include "scen/scenario.h"

namespace perfbench {

using namespace hfpu;

double
poolForMicros(int threads, int n, int calls, int reps)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        phys::WorkerPool pool(threads);
        std::atomic<int> sink{0};
        auto noop = [&](int i) {
            if (i < 0)
                sink.fetch_add(1, std::memory_order_relaxed);
        };
        pool.parallelFor(n, noop); // wake every worker once
        const SteadyTime t0 = now();
        for (int c = 0; c < calls; ++c)
            pool.parallelFor(n, noop);
        samples.push_back(secondsBetween(t0, now()) * 1e6 / calls);
    }
    return median(samples);
}

double
registryCountNs(int threads, int calls, int reps)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        metrics::Registry registry;
        std::atomic<int> ready{0};
        std::atomic<bool> go{false};
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                metrics::ScopedNamespace ns("probe/w" + std::to_string(t));
                ready.fetch_add(1);
                while (!go.load(std::memory_order_acquire))
                    std::this_thread::yield();
                for (int c = 0; c < calls; ++c)
                    registry.count("phys/steps");
            });
        }
        while (ready.load() < threads)
            std::this_thread::yield();
        const SteadyTime t0 = now();
        go.store(true, std::memory_order_release);
        for (std::thread &w : workers)
            w.join();
        samples.push_back(secondsBetween(t0, now()) * 1e9 / calls);
    }
    return median(samples);
}

double
scalarOpNs(int bits, int ops, int reps, uint64_t seed)
{
    // Operands in [0.5, 1) from the seed, so nothing folds at compile
    // time and the dependent chain stays finite.
    std::vector<float> data(1024);
    uint64_t state = seed;
    for (float &x : data)
        x = 0.5f + static_cast<float>(splitmix64(state) >> 40) * 0x1p-25f;

    auto &ctx = fp::PrecisionContext::current();
    ctx.reset();
    ctx.setRoundingMode(fp::RoundingMode::Jamming);
    ctx.setMantissaBits(fp::Phase::Lcp, bits);
    std::vector<double> samples;
    volatile float sink = 0.0f;
    {
        fp::ScopedPhase phase(fp::Phase::Lcp);
        const int iters = ops / 2;
        for (int r = 0; r < reps; ++r) {
            float acc = 1.0f;
            const SteadyTime t0 = now();
            for (int i = 0; i < iters; ++i)
                acc = fp::fadd(fp::fmul(acc, data[i & 1023]),
                               data[(i + 7) & 1023]);
            samples.push_back(secondsBetween(t0, now()) * 1e9 /
                              (2.0 * iters));
            sink = acc;
        }
    }
    (void)sink;
    ctx.reset();
    return median(samples);
}

double
checkpointMicros(const std::string &name, int warmSteps, int pushes,
                 int reps)
{
    fp::PrecisionContext::current().reset();
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        scen::Scenario scenario = scen::makeScenario(name);
        scenario.world->setCheckpointCapacity(4);
        scenario.run(warmSteps);
        const SteadyTime t0 = now();
        for (int p = 0; p < pushes; ++p)
            scenario.world->pushCheckpoint();
        samples.push_back(secondsBetween(t0, now()) * 1e6 / pushes);
    }
    return median(samples);
}

double
scenarioBuildMs(const std::vector<std::string> &names, int reps)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const SteadyTime t0 = now();
        for (const std::string &name : names)
            scen::makeScenario(name);
        samples.push_back(secondsBetween(t0, now()) * 1e3 /
                          static_cast<double>(names.size()));
    }
    return median(samples);
}

namespace {

class CountingRecorder : public fp::OpRecorder
{
  public:
    void
    record(const fp::OpRecord &rec) override
    {
        ++byPhase[static_cast<int>(rec.phase)];
    }

    uint64_t byPhase[fp::kNumPhases] = {};
};

} // namespace

OpCounts
countOps(const std::vector<CountJob> &jobs)
{
    auto &ctx = fp::PrecisionContext::current();
    CountingRecorder recorder;
    OpCounts out;
    for (const CountJob &job : jobs) {
        ctx.reset();
        ctx.setRoundingMode(fp::RoundingMode::Jamming);
        phys::PrecisionPolicy policy;
        policy.minNarrowBits = job.narrowBits;
        policy.minLcpBits = job.lcpBits;
        scen::Scenario scenario = scen::makeScenario(job.scenario);
        std::optional<phys::PrecisionController> controller;
        if (job.controller) {
            controller.emplace(policy);
            scenario.world->setController(&*controller);
        } else {
            ctx.setMantissaBits(fp::Phase::Narrow, job.narrowBits);
            ctx.setMantissaBits(fp::Phase::Lcp, job.lcpBits);
        }
        ctx.setRecorder(&recorder);
        scenario.run(job.steps);
        ctx.setRecorder(nullptr);
        scenario.world->setController(nullptr);
        out.steps += static_cast<uint64_t>(job.steps);
    }
    ctx.reset();
    out.narrow = recorder.byPhase[static_cast<int>(fp::Phase::Narrow)];
    out.lcp = recorder.byPhase[static_cast<int>(fp::Phase::Lcp)];
    return out;
}

} // namespace perfbench
