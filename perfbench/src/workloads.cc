#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "csim/cluster.h"
#include "csim/experiment.h"
#include "csim/metrics.h"
#include "csim/profile.h"
#include "csim/trace.h"
#include "fault/fault.h"
#include "fp/precision.h"
#include "fpu/hfpu.h"
#include "phys/clock.h"
#include "probes.h"
#include "scen/scenario.h"
#include "srv/batch.h"

namespace perfbench {

using namespace hfpu;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "batch_random", "paper_reduced", "batch_chaos", "paper_trace"};
    return names;
}

namespace {

// ---------------------------------------------------------------------
// Workload plans
// ---------------------------------------------------------------------

enum class Kind {
    Batch,    //!< all worlds in one BatchScheduler::run per round
    PerScene, //!< one BatchScheduler::run per world
    Trace,    //!< csim::runExperiment per scenario
};

/** CI chaos campaign rates (no real-time stalls). */
constexpr const char *kChaosRates =
    "bitflip=0.000002,nan=0.0000005,inf=0.0000005,table=0.00005,"
    "throw=0.001,steps=2..999";

struct Plan {
    std::string name;
    std::string scale; //!< "full" or "tiny": selects the pinned digests
    Kind kind = Kind::Batch;
    int threads = 1;
    /** World workloads: one job per world, in expansion order. */
    std::vector<srv::JobSpec> jobs;
    srv::BatchConfig config;
    /** batch_chaos: the deadline ladder runs on a virtual clock. */
    bool virtualClock = false;
    int64_t virtualStepMicros = 900;
    double virtualJitter = 0.5;
    uint64_t virtualSeed = 0;
    /** paper_trace: scenarios in seeded order, steps per scenario. */
    std::vector<std::string> scenes;
    int traceSteps = 0;
    std::string size; //!< stated input size
};

/** The 8 paper scenarios in an order drawn from the seed. */
std::vector<std::string>
seededSceneOrder(uint64_t seed)
{
    std::vector<std::string> names = scen::scenarioNames();
    uint64_t state = seed ^ 0x0ddba11ull;
    for (size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[splitmix64(state) % i]);
    return names;
}

Plan
makePlan(const Options &opts)
{
    Plan p;
    p.name = opts.workload;
    p.scale = opts.tiny ? "tiny" : "full";
    p.threads = opts.threads;
    p.config.threads = opts.threads;
    // Random#<k> worlds of different seeds never overlap.
    const uint64_t worldBase = opts.seed * 100000;
    char size[128];

    if (p.name == "batch_random" || p.name == "batch_chaos") {
        const bool chaos = p.name == "batch_chaos";
        // Many worlds per round, so a seed's mix of world sizes (6 to
        // 15 bodies) averages out. Tiny sizes still give every world
        // two timed slices.
        const int worlds = chaos ? (opts.tiny ? 4 : 128)
                                 : (opts.tiny ? 8 : 192);
        const int steps = chaos ? (opts.tiny ? 30 : 80)
                                : (opts.tiny ? 75 : 200);
        fault::FaultSpec faults;
        if (chaos) {
            std::string error;
            faults = fault::FaultSpec::parse(
                "seed=" + std::to_string(opts.seed) + "," + kChaosRates,
                &error);
            if (!error.empty())
                throw std::runtime_error("fault spec: " + error);
            p.config.checkpointCapacity = 4;
            p.config.rollbackSteps = 3;
            p.config.recoveryBudget = 3;
            p.config.rehabAttempts = 2;
            p.config.stepDeadlineMicros = 1100;
            p.config.degradeAfterMisses = 2;
            // Short slices: enough per-step latency samples per world.
            p.config.sliceSteps = 10;
            p.virtualClock = true;
            p.virtualSeed = opts.seed;
        }
        for (int r = 0; r < worlds; ++r) {
            srv::JobSpec spec;
            spec.scenario = "Random#" + std::to_string(worldBase + r);
            spec.steps = steps;
            spec.useController = true; // 23-bit policy: full precision
            spec.faults = faults;
            p.jobs.push_back(std::move(spec));
        }
        std::snprintf(size, sizeof(size),
                      "%d Random worlds x %d steps, 23 bits%s", worlds,
                      steps,
                      chaos ? ", chaos faults, virtual clock 900us/step "
                              "vs 1100us deadline"
                            : "");
    } else if (p.name == "paper_reduced") {
        p.kind = Kind::PerScene;
        const int steps = opts.tiny ? 4 : 60;
        for (const std::string &scene : seededSceneOrder(opts.seed)) {
            const csim::PrecisionProfile prof =
                csim::paperJammingProfile(scene);
            srv::JobSpec spec;
            spec.scenario = scene;
            spec.steps = steps;
            spec.policy.minNarrowBits = prof.narrowBits;
            spec.policy.minLcpBits = prof.lcpBits;
            spec.useController = true;
            p.jobs.push_back(std::move(spec));
        }
        // Every step is its own slice, so every step is timed.
        p.config.sliceSteps = 1;
        std::snprintf(size, sizeof(size),
                      "8 paper scenarios x %d steps, Table 1 jamming "
                      "minima, one world per run()",
                      steps);
    } else if (p.name == "paper_trace") {
        p.kind = Kind::Trace;
        p.scenes = seededSceneOrder(opts.seed);
        p.traceSteps = opts.tiny ? 1 : 6;
        std::snprintf(size, sizeof(size),
                      "8 paper scenarios x %d LCP steps x 17 Figure 5 "
                      "design points",
                      p.traceSteps);
    } else {
        throw std::invalid_argument("unknown workload '" + p.name + "'");
    }
    p.size = size;
    return p;
}

/** Figure 5: the unshared baseline plus 4 architectures x 1/2/4/8. */
std::vector<csim::DesignPoint>
figure5Points()
{
    const fpu::L1Design archs[] = {
        fpu::L1Design::Baseline, fpu::L1Design::ConvTriv,
        fpu::L1Design::ReducedTriv, fpu::L1Design::ReducedTrivLut};
    std::vector<csim::DesignPoint> points;
    points.push_back({fpu::L1Design::Baseline, 1, 1, -1});
    for (fpu::L1Design design : archs) {
        for (int n : {1, 2, 4, 8})
            points.push_back({design, n, 1, -1});
    }
    return points;
}

/** The design point whose L1 service mix is reported (the paper's pick). */
bool
isReportedServicePoint(const csim::DesignPoint &p)
{
    return p.design == fpu::L1Design::ReducedTrivLut && p.coresPerFpu == 4;
}

// ---------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------

/** Work counters of one round that must repeat bit for bit. */
struct ExactCounts {
    uint64_t registrySteps = 0; //!< phys/steps incl. replays, re-executions
    uint64_t pairs = 0;
    uint64_t contacts = 0;
    uint64_t islands = 0;
    uint64_t lcpRows = 0;
    uint64_t committedSteps = 0;
    uint64_t reexecutions = 0;
    uint64_t injected = 0;
    uint64_t rollbacks = 0;
    uint64_t rehabReruns = 0;
    uint64_t degradations = 0; //!< deadline-ladder transitions
    uint64_t instructions = 0; //!< paper_trace: simulated, all points
    uint64_t localOps = 0;     //!< paper_trace: reported point, L1-served
    uint64_t serviceOps = 0;   //!< paper_trace: reported point, all ops

    uint64_t
    digest() const
    {
        Digest d;
        for (uint64_t v :
             {registrySteps, pairs, contacts, islands, lcpRows,
              committedSteps, reexecutions, injected, rollbacks,
              rehabReruns, degradations, instructions, localOps,
              serviceOps})
            d.add(v);
        return d.value();
    }
};

/** Phase timers summed over every namespace of a registry snapshot. */
struct PhaseTimes {
    double broadNs = 0, narrowNs = 0, islandNs = 0, lcpNs = 0,
           integrateNs = 0;
};

struct Round {
    bool traced = false;
    double wallS = 0.0;
    double cpuS = 0.0;
    uint64_t steps = 0;          //!< committed world-steps
    std::vector<double> stepUs;  //!< per-step latency samples
    double tailMs = 0.0;
    double worldMsSum = 0.0;     //!< sum of WorldResult::wallMs
    long attempted = 0;
    long failed = 0;
    uint64_t digest = 0;
    ExactCounts exact;
    PhaseTimes phases;           //!< traced rounds only
    /** paper_trace, traced rounds: split of the host time. */
    double captureS = 0.0, classifyS = 0.0, dispatchS = 0.0;
    uint64_t classifiedOps = 0;
};

bool
endsWithKey(const std::string &key, const std::string &name)
{
    if (key == name)
        return true;
    return key.size() > name.size() &&
        key.compare(key.size() - name.size(), name.size(), name) == 0 &&
        key[key.size() - name.size() - 1] == '/';
}

/** Sum the engine's phys counters and timers across all namespaces. */
void
readRegistry(Round &round)
{
    const metrics::Json snap = metrics::Registry::global().toJson();
    if (const metrics::Json *counters = snap.find("counters")) {
        for (const auto &[key, value] : counters->members()) {
            const auto v = static_cast<uint64_t>(value.asNumber());
            if (endsWithKey(key, "phys/steps"))
                round.exact.registrySteps += v;
            else if (endsWithKey(key, "phys/pairs"))
                round.exact.pairs += v;
            else if (endsWithKey(key, "phys/contacts"))
                round.exact.contacts += v;
            else if (endsWithKey(key, "phys/islands"))
                round.exact.islands += v;
            else if (endsWithKey(key, "phys/lcp/rows"))
                round.exact.lcpRows += v;
        }
    }
    if (const metrics::Json *timers = snap.find("timers")) {
        for (const auto &[key, value] : timers->members()) {
            const metrics::Json *ns = value.find("ns");
            const double v = ns ? ns->asNumber() : 0.0;
            if (endsWithKey(key, "phys/broad"))
                round.phases.broadNs += v;
            else if (endsWithKey(key, "phys/narrow"))
                round.phases.narrowNs += v;
            else if (endsWithKey(key, "phys/island"))
                round.phases.islandNs += v;
            else if (endsWithKey(key, "phys/lcp"))
                round.phases.lcpNs += v;
            else if (endsWithKey(key, "phys/integrate"))
                round.phases.integrateNs += v;
        }
    }
}

/**
 * Per-world progress observer. The scheduler calls it under its own
 * mutex after every slice; a world's step latency is the time between
 * two of its consecutive callbacks divided by the steps in between.
 */
class ProgressLog
{
  public:
    void
    startRound(size_t worlds, Tracer *tracer)
    {
        last_.assign(worlds, Last{});
        stepUs_.clear();
        completions_.clear();
        tracer_ = tracer;
    }

    /** Before each run() call: its world offset and span id. */
    void
    startRun(int offset, uint64_t runSpan)
    {
        offset_ = offset;
        runSpan_ = runSpan;
    }

    void
    onProgress(const srv::WorldProgress &p)
    {
        const SteadyTime t = now();
        const size_t id = static_cast<size_t>(offset_ + p.world);
        if (id >= last_.size())
            return;
        Last &last = last_[id];
        const int steps = p.stepsDone - last.steps;
        if (last.seen && steps > 0) {
            stepUs_.push_back(
                std::chrono::duration<double, std::micro>(t - last.t)
                    .count() /
                steps);
            if (tracer_)
                tracer_->record("srv.slice", static_cast<int64_t>(id),
                                runSpan_, last.t, t);
        }
        // A quarantined world may be rerun by the rehabilitation pass
        // after the batch; its next slice starts a fresh sequence.
        last = Last{!p.quarantined, t, p.stepsDone};
        if (p.stepsDone >= p.stepsTotal || p.quarantined)
            completions_.push_back(t);
    }

    std::vector<double> &stepUs() { return stepUs_; }
    const std::vector<SteadyTime> &completions() const
    {
        return completions_;
    }

  private:
    struct Last {
        bool seen = false;
        SteadyTime t{};
        int steps = 0;
    };

    std::vector<Last> last_;
    std::vector<double> stepUs_;
    std::vector<SteadyTime> completions_;
    Tracer *tracer_ = nullptr;
    int offset_ = 0;
    uint64_t runSpan_ = 0;
};

/**
 * Wall time after the first pool slot runs out of worlds: with S slots
 * and N worlds, the (N - S + 1)-th world to finish leaves a slot idle.
 */
double
tailMillis(const std::vector<SteadyTime> &completions, size_t first,
           size_t worlds, int threads, SteadyTime end)
{
    const size_t slots =
        std::min(worlds, static_cast<size_t>(std::max(1, threads)));
    const size_t k = first + worlds - slots; // 0-based index
    if (k >= completions.size())
        return 0.0;
    return secondsBetween(completions[k], end) * 1e3;
}

/** Digest of every world's status, steps and final state hash. */
uint64_t
worldDigest(const std::vector<srv::WorldResult> &results)
{
    std::vector<const srv::WorldResult *> order;
    for (const srv::WorldResult &r : results)
        order.push_back(&r);
    // Canonical order, so a seed that only reorders submissions (the
    // paper scenarios) gives the same digest.
    std::stable_sort(order.begin(), order.end(),
                     [](const srv::WorldResult *a,
                        const srv::WorldResult *b) {
                         return a->scenario < b->scenario;
                     });
    Digest d;
    for (const srv::WorldResult *r : order) {
        for (char c : r->scenario)
            d.add(static_cast<unsigned char>(c));
        d.add(static_cast<uint64_t>(r->status));
        d.add(static_cast<uint64_t>(r->stepsDone));
        d.add(r->finalHash);
    }
    return d.value();
}

/** The scheduler (and the clock it reads) of a world workload. */
struct WorldRig {
    std::optional<phys::VirtualClock> clock;
    std::optional<srv::BatchScheduler> scheduler;

    void
    build(const Plan &p, srv::BatchConfig config)
    {
        scheduler.reset();
        clock.reset();
        if (p.virtualClock) {
            clock.emplace(p.virtualStepMicros, p.virtualSeed,
                          p.virtualJitter);
            config.clock = &*clock;
        }
        scheduler.emplace(config);
    }
};

Round
runWorldRound(const Plan &p, WorldRig &rig, ProgressLog &log,
              Tracer &tracer, bool traced,
              std::vector<srv::WorldResult> *keep)
{
    metrics::Registry::global().reset();
    Round round;
    round.traced = traced;
    log.startRound(p.jobs.size(), traced ? &tracer : nullptr);
    std::vector<srv::WorldResult> results;

    const double cpu0 = cpuSeconds();
    const SteadyTime t0 = now();
    if (p.kind == Kind::Batch) {
        const SteadyTime s0 = now();
        const uint64_t span = traced ? tracer.reserve() : 0;
        log.startRun(0, span);
        results = rig.scheduler->run(p.jobs);
        const SteadyTime s1 = now();
        round.tailMs = tailMillis(log.completions(), 0, p.jobs.size(),
                                  p.threads, s1);
        if (traced)
            tracer.record("srv.run", -1, 0, s0, s1, span);
    } else {
        for (size_t i = 0; i < p.jobs.size(); ++i) {
            const size_t before = log.completions().size();
            const SteadyTime s0 = now();
            const uint64_t span = traced ? tracer.reserve() : 0;
            log.startRun(static_cast<int>(i), span);
            std::vector<srv::WorldResult> one =
                rig.scheduler->run({p.jobs[i]});
            const SteadyTime s1 = now();
            round.tailMs += tailMillis(log.completions(), before, 1,
                                       p.threads, s1);
            if (traced)
                tracer.record("srv.run", static_cast<int64_t>(i), 0, s0,
                              s1, span);
            results.push_back(std::move(one.front()));
        }
    }
    const SteadyTime t1 = now();
    round.wallS = secondsBetween(t0, t1);
    round.cpuS = cpuSeconds() - cpu0;
    round.stepUs = std::move(log.stepUs());

    for (const srv::WorldResult &r : results) {
        ++round.attempted;
        if (r.status != srv::WorldStatus::Completed)
            ++round.failed;
        round.steps += static_cast<uint64_t>(r.stepsDone);
        round.worldMsSum += r.wallMs;
        round.exact.reexecutions += static_cast<uint64_t>(r.reexecutions);
        round.exact.rollbacks += static_cast<uint64_t>(r.rollbacks);
        round.exact.injected += r.faultStats.total();
        round.exact.degradations += r.degradationEvents.size();
        for (const srv::RecoveryEvent &ev : r.recoveryEvents) {
            if (ev.action == "rehabilitated" || ev.action == "rehab-failed")
                ++round.exact.rehabReruns;
        }
    }
    round.exact.committedSteps = round.steps;
    round.digest = worldDigest(results);
    if (traced)
        readRegistry(round);
    if (keep)
        *keep = std::move(results);
    return round;
}

/**
 * Serial replay of a seeded sample of worlds (DESIGN.md §7b: serial
 * and threaded runs agree bitwise). Unsampled worlds keep their batch
 * index but run zero steps, so fault and clock streams, which are
 * keyed by that index, are unchanged for the sampled ones.
 */
std::string
checkSerialReplay(const Plan &p, uint64_t seed,
                  const std::vector<srv::WorldResult> &threaded)
{
    const size_t n = p.jobs.size();
    std::vector<bool> sampled(n, false);
    uint64_t state = seed ^ 0xfeedull;
    for (size_t k = 0; k < std::min<size_t>(4, n); ++k)
        sampled[splitmix64(state) % n] = true;
    std::vector<srv::JobSpec> jobs = p.jobs;
    for (size_t i = 0; i < n; ++i) {
        if (!sampled[i])
            jobs[i].steps = 0;
    }
    srv::BatchConfig config = p.config;
    config.threads = 1;
    WorldRig rig;
    rig.build(p, config);
    const std::vector<srv::WorldResult> serial = rig.scheduler->run(jobs);
    for (size_t i = 0; i < n; ++i) {
        if (!sampled[i])
            continue;
        const srv::WorldResult &a = threaded[i];
        const srv::WorldResult &b = serial[i];
        if (a.status != b.status || a.stepsDone != b.stepsDone ||
            a.finalHash != b.finalHash) {
            char msg[256];
            std::snprintf(msg, sizeof(msg),
                          "serial replay of %s differs: threaded "
                          "%d steps hash %016" PRIx64
                          ", serial %d steps hash %016" PRIx64,
                          a.scenario.c_str(), a.stepsDone, a.finalHash,
                          b.stepsDone, b.finalHash);
            return msg;
        }
    }
    return "";
}

// ---------------------------------------------------------------------
// paper_trace
// ---------------------------------------------------------------------

struct TraceRig {
    std::vector<csim::DesignPoint> points;
    /** L1 models per distinct design, for the traced decomposition. */
    std::map<fpu::L1Design, std::unique_ptr<fpu::L1Fpu>> l1s;

    void
    build()
    {
        points = figure5Points();
        l1s.clear();
        for (const csim::DesignPoint &pt : points) {
            if (l1s.count(pt.design))
                continue;
            fpu::L1Config cfg;
            cfg.design = pt.design;
            cfg.roundingMode = fp::RoundingMode::Jamming;
            cfg.lutSubBank = pt.lutSubBank;
            l1s[pt.design] = std::make_unique<fpu::L1Fpu>(cfg);
        }
    }
};

csim::ExperimentConfig
experimentConfig(const std::string &scene, int steps)
{
    csim::ExperimentConfig config;
    config.scenario = scene;
    config.phase = fp::Phase::Lcp;
    config.steps = steps;
    config.profile = csim::paperJammingProfile(scene);
    config.roundingMode = fp::RoundingMode::Jamming;
    return config;
}

/**
 * csim::runExperiment taken apart into its public pieces (trace
 * capture, L1 classification, cluster dispatch) so each can be timed
 * and traced. Its results must equal runExperiment's bit for bit; the
 * round digest checks that.
 */
std::vector<csim::PhaseSimResult>
tracedExperiment(const csim::ExperimentConfig &config, TraceRig &rig,
                 Tracer &tracer, int64_t group, Round &round)
{
    auto &ctx = fp::PrecisionContext::current();
    ctx.reset();
    ctx.setRoundingMode(config.roundingMode);
    ctx.setMantissaBits(fp::Phase::Narrow, config.profile.narrowBits);
    ctx.setMantissaBits(fp::Phase::Lcp, config.profile.lcpBits);

    const std::vector<csim::DesignPoint> &points = rig.points;
    std::vector<std::unique_ptr<csim::ClusterSim>> clusters;
    for (const csim::DesignPoint &pt : points) {
        csim::ClusterConfig cc;
        cc.coresPerFpu = pt.coresPerFpu;
        cc.miniShare = pt.miniShare;
        cc.interconnectOverride = pt.interconnectOverride;
        cc.l1.design = pt.design;
        cc.l1.roundingMode = config.roundingMode;
        cc.l1.lutSubBank = pt.lutSubBank;
        cc.l1.memoFuzzyBits = pt.memoFuzzyBits;
        clusters.push_back(
            std::make_unique<csim::ClusterSim>(config.core, cc));
    }

    const SteadyTime e0 = now();
    const uint64_t experimentSpan = tracer.reserve();
    scen::Scenario scenario = scen::makeScenario(config.scenario);
    csim::TraceRecorder recorder;
    {
        csim::ScopedRecording recording(*scenario.world, recorder);
        for (int step = 0; step < config.steps; ++step) {
            const uint64_t stepSpan = tracer.reserve();
            const SteadyTime s0 = now();
            scenario.step();
            csim::StepTrace trace = recorder.takeStep();
            const SteadyTime s1 = now();
            round.captureS += secondsBetween(s0, s1);
            tracer.record("csim.capture", group, stepSpan, s0, s1);
            const auto &units = config.phase == fp::Phase::Narrow
                ? trace.narrow
                : trace.lcp;
            if (!units.empty()) {
                uint64_t unitOps = 0;
                for (const csim::WorkUnit &u : units)
                    unitOps += u.ops.size();
                std::map<fpu::L1Design, std::vector<csim::ClassifiedUnit>>
                    classified;
                for (size_t i = 0; i < points.size(); ++i) {
                    auto it = classified.find(points[i].design);
                    if (it == classified.end()) {
                        const SteadyTime c0 = now();
                        it = classified
                                 .emplace(points[i].design,
                                          csim::classifyUnits(
                                              units,
                                              *rig.l1s[points[i].design]))
                                 .first;
                        const SteadyTime c1 = now();
                        round.classifyS += secondsBetween(c0, c1);
                        round.classifiedOps += unitOps;
                        tracer.record("fpu.classify", group, stepSpan, c0,
                                      c1);
                    }
                    const SteadyTime d0 = now();
                    clusters[i]->dispatchAll(it->second);
                    const SteadyTime d1 = now();
                    round.dispatchS += secondsBetween(d0, d1);
                    tracer.record("csim.dispatch", group, stepSpan, d0, d1);
                }
            }
            tracer.record("csim.step", group, experimentSpan, s0, now(),
                          stepSpan);
        }
    }
    tracer.record("csim.experiment", group, 0, e0, now(), experimentSpan);

    std::vector<csim::PhaseSimResult> results(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        const csim::ClusterResult r = clusters[i]->result();
        results[i].point = points[i];
        results[i].service = clusters[i]->serviceStats();
        results[i].cycles = r.cycles;
        results[i].instructions = r.instructions;
        results[i].fpOps = r.fpOps;
        results[i].units = r.units;
        results[i].ipcPerCore = r.ipcPerCore(clusters[i]->cores());
    }
    ctx.reset();
    return results;
}

/** Add simulated instructions and the reported point's L1 service mix. */
void
tallyExperiment(const std::vector<csim::PhaseSimResult> &results,
                ExactCounts &exact)
{
    for (const csim::PhaseSimResult &r : results) {
        exact.instructions += r.instructions;
        if (isReportedServicePoint(r.point)) {
            exact.localOps += r.service.count(fpu::ServiceLevel::Trivial) +
                r.service.count(fpu::ServiceLevel::Lookup);
            exact.serviceOps += r.service.total();
        }
    }
}

Round
runTraceRound(const Plan &p, TraceRig &rig, Tracer &tracer, bool traced)
{
    metrics::Registry::global().reset();
    Round round;
    round.traced = traced;
    std::map<std::string, std::vector<csim::PhaseSimResult>> byScene;

    const double cpu0 = cpuSeconds();
    const SteadyTime t0 = now();
    for (size_t i = 0; i < p.scenes.size(); ++i) {
        const csim::ExperimentConfig config =
            experimentConfig(p.scenes[i], p.traceSteps);
        const SteadyTime s0 = now();
        std::vector<csim::PhaseSimResult> results = traced
            ? tracedExperiment(config, rig, tracer,
                               static_cast<int64_t>(i), round)
            : csim::runExperiment(config, rig.points);
        const SteadyTime s1 = now();
        round.stepUs.push_back(secondsBetween(s0, s1) * 1e6 /
                               p.traceSteps);
        byScene[p.scenes[i]] = std::move(results);
        ++round.attempted;
    }
    const SteadyTime t1 = now();
    round.wallS = secondsBetween(t0, t1);
    round.cpuS = cpuSeconds() - cpu0;
    round.steps = p.scenes.size() * static_cast<uint64_t>(p.traceSteps);
    round.exact.committedSteps = round.steps;

    // Cycles, instructions and service-level counts of every design
    // point, in canonical scenario order.
    Digest d;
    for (const auto &[scene, results] : byScene) {
        for (char c : scene)
            d.add(static_cast<unsigned char>(c));
        for (const csim::PhaseSimResult &r : results) {
            d.add(r.cycles);
            d.add(r.instructions);
            d.add(r.fpOps);
            d.add(r.units);
            for (int l = 0; l < fpu::kNumServiceLevels; ++l)
                d.add(r.service.count(static_cast<fpu::ServiceLevel>(l)));
        }
        tallyExperiment(results, round.exact);
    }
    round.digest = d.value();
    if (traced)
        readRegistry(round);
    return round;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

template <class F>
double
medianOver(const std::vector<Round> &rounds, bool traced, F value)
{
    std::vector<double> v;
    for (const Round &r : rounds) {
        if (r.traced == traced)
            v.push_back(value(r));
    }
    return median(v);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::string
checkPinned(const DigestTable &pinned, const std::string &key,
            uint64_t value)
{
    auto it = pinned.find(key);
    if (it == pinned.end())
        return "no pinned digest '" + key + "'";
    if (it->second != value)
        return "digest '" + key + "' is " + hex(value) + ", pinned " +
            hex(it->second);
    return "";
}

std::vector<CountJob>
countJobs(const Plan &p)
{
    std::vector<CountJob> jobs;
    if (p.kind == Kind::Trace) {
        for (const std::string &scene : p.scenes) {
            const csim::PrecisionProfile prof =
                csim::paperJammingProfile(scene);
            jobs.push_back(
                {scene, prof.narrowBits, prof.lcpBits, false, p.traceSteps});
        }
        return jobs;
    }
    // Batch workloads count a sample of their worlds (faults off).
    const size_t n = p.kind == Kind::Batch
        ? std::min<size_t>(8, p.jobs.size())
        : p.jobs.size();
    for (size_t i = 0; i < n; ++i) {
        const srv::JobSpec &j = p.jobs[i];
        jobs.push_back({j.scenario, j.policy.minNarrowBits,
                        j.policy.minLcpBits, j.useController, j.steps});
    }
    return jobs;
}

std::vector<std::string>
sceneNames(const Plan &p)
{
    if (p.kind == Kind::Trace)
        return p.scenes;
    std::vector<std::string> names;
    for (size_t i = 0; i < std::min<size_t>(8, p.jobs.size()); ++i)
        names.push_back(p.jobs[i].scenario);
    return names;
}

/**
 * The warm-up that ends set-up: one short world per pool thread (the
 * first paper scenario for paper_reduced), so first-touch and lazy
 * costs are paid before the first timed round. The worlds are fixed
 * and fault-free, so set-up does not depend on the seed.
 */
std::vector<srv::JobSpec>
warmUpJobs(const Plan &p)
{
    std::vector<srv::JobSpec> jobs;
    const int n = p.kind == Kind::Batch ? p.threads : 1;
    for (int i = 0; i < n; ++i) {
        srv::JobSpec spec;
        if (p.kind == Kind::Batch) {
            spec.scenario = "Random#" + std::to_string(i);
        } else {
            spec.scenario = scen::scenarioNames().front();
            const csim::PrecisionProfile prof =
                csim::paperJammingProfile(spec.scenario);
            spec.policy.minNarrowBits = prof.narrowBits;
            spec.policy.minLcpBits = prof.lcpBits;
        }
        spec.steps = 25;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

/** Everything one invocation measured. */
struct Measurement {
    std::vector<double> setups;
    std::vector<Round> rounds;
    /** The first round's world results (batch workloads). */
    std::vector<srv::WorldResult> firstResults;
    double seconds = 0.0;
};

/**
 * Set up five times (the last set-up is kept), then run identical
 * rounds until the time is spent. Traced runs alternate untraced and
 * traced rounds so the tracing overhead is measured in one process.
 */
Measurement
measure(const Plan &plan, const Options &opts, Tracer &tracer)
{
    Measurement m;
    const bool worlds = plan.kind != Kind::Trace;
    ProgressLog log;
    srv::BatchConfig config = plan.config;
    config.onProgress = [&log](const srv::WorldProgress &p) {
        log.onProgress(p);
    };
    WorldRig worldRig;
    TraceRig traceRig;
    for (int k = 0; k < 5; ++k) {
        const SteadyTime s0 = now();
        if (worlds) {
            worldRig.build(plan, config);
            worldRig.scheduler->run(warmUpJobs(plan));
        } else {
            traceRig.build();
            csim::runExperiment(
                experimentConfig(scen::scenarioNames().front(), 1),
                traceRig.points);
        }
        m.setups.push_back(secondsBetween(s0, now()));
    }

    const size_t minRounds = opts.trace ? 4 : 3;
    const SteadyTime start = now();
    while (m.rounds.size() < minRounds ||
           secondsBetween(start, now()) < opts.seconds) {
        const bool traced = opts.trace && m.rounds.size() % 2 == 1;
        std::vector<srv::WorldResult> *keep =
            m.rounds.empty() ? &m.firstResults : nullptr;
        m.rounds.push_back(
            worlds
                ? runWorldRound(plan, worldRig, log, tracer, traced, keep)
                : runTraceRound(plan, traceRig, tracer, traced));
    }
    m.seconds = secondsBetween(start, now());
    return m;
}

/** Median step latency of each untraced round; the median of those. */
double
latencyMedian(const std::vector<Round> &rounds)
{
    std::vector<double> perRound;
    for (const Round &r : rounds) {
        if (!r.traced)
            perRound.push_back(median(r.stepUs));
    }
    return median(perRound);
}

/**
 * Tail step latency @p q of the untraced rounds. When every round has
 * at least 10 samples beyond @p q, it is taken per round and the median
 * over rounds is reported, so a burst of host noise in a few rounds
 * cannot move it. Otherwise the samples of all rounds are pooled and
 * the highest percentile with 10 samples beyond it is taken.
 */
double
latencyTail(const std::vector<Round> &rounds, double q, std::string &how)
{
    std::vector<double> pooled, perRound;
    size_t fewest = SIZE_MAX;
    for (const Round &r : rounds) {
        if (r.traced)
            continue;
        pooled.insert(pooled.end(), r.stepUs.begin(), r.stepUs.end());
        fewest = std::min(fewest, r.stepUs.size());
        perRound.push_back(tailPercentile(r.stepUs, q, nullptr));
    }
    char buf[128];
    if (static_cast<double>(fewest) * (1.0 - q) >= 10.0) {
        std::snprintf(buf, sizeof(buf),
                      "p%.4g per round over >= %zu samples, median of %zu "
                      "rounds",
                      q * 100.0, fewest, perRound.size());
        how = buf;
        return median(perRound);
    }
    double used = 0.0;
    const double value = tailPercentile(pooled, q, &used);
    std::snprintf(buf, sizeof(buf), "p%.4g of %zu pooled samples",
                  used * 100.0, pooled.size());
    how = buf;
    return value;
}

std::vector<Metric>
endToEndMetrics(const Plan &plan, const Measurement &m,
                std::vector<std::string> &notes)
{
    const std::vector<Round> &rounds = m.rounds;
    std::string how99;
    const double p99 = latencyTail(rounds, 0.99, how99);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "step latency: step_p50_us is the median over rounds of "
                  "each round's median; step_p99_us is the %s",
                  how99.c_str());
    notes.push_back(line);
    const ExactCounts &e = rounds.front().exact;
    std::snprintf(line, sizeof(line),
                  "per round: %" PRIu64 " faults injected, %" PRIu64
                  " rollbacks, %" PRIu64 " rehab reruns, %" PRIu64
                  " degradation events, %" PRIu64
                  " controller re-executions",
                  e.injected, e.rollbacks, e.rehabReruns, e.degradations,
                  e.reexecutions);
    notes.push_back(line);
    if (plan.kind == Kind::Trace) {
        std::snprintf(line, sizeof(line), "sim_minstr_per_s %.6g Minstr/s",
                      medianOver(rounds, false, [](const Round &r) {
                          return r.exact.instructions / r.wallS / 1e6;
                      }));
        notes.push_back(line);
    }
    return {
        {"steps_per_s",
         medianOver(rounds, false,
                    [](const Round &r) { return r.steps / r.wallS; }),
         "1/s"},
        {"step_p50_us", latencyMedian(rounds), "us"},
        {"step_p99_us", p99, "us"},
        {"cpu_ms_per_kstep",
         medianOver(rounds, false,
                    [](const Round &r) {
                        return r.cpuS * 1e3 / (r.steps / 1000.0);
                    }),
         "ms"},
        {"setup_s", median(m.setups), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/**
 * srv numbers for paper_trace, which does not use the batch layer:
 * three traced rounds of 16 fixed Random worlds x 50 steps.
 */
std::vector<Round>
srvProbe(int threads, Tracer &tracer)
{
    Plan p;
    p.threads = threads;
    p.config.threads = threads;
    for (int r = 0; r < 16; ++r) {
        srv::JobSpec spec;
        spec.scenario = "Random#" + std::to_string(r);
        spec.steps = 50;
        p.jobs.push_back(std::move(spec));
    }
    ProgressLog log;
    srv::BatchConfig config = p.config;
    config.onProgress = [&log](const srv::WorldProgress &pr) {
        log.onProgress(pr);
    };
    WorldRig rig;
    rig.build(p, config);
    std::vector<Round> rounds;
    for (int k = 0; k < 3; ++k)
        rounds.push_back(runWorldRound(p, rig, log, tracer, true, nullptr));
    return rounds;
}

/**
 * csim and fpu numbers for the workloads that do not run the
 * paper-trace path: three traced experiments on the first paper
 * scenario, 2 LCP steps through all Figure 5 design points.
 */
std::vector<Round>
csimProbe(Tracer &tracer)
{
    TraceRig rig;
    rig.build();
    const csim::ExperimentConfig config =
        experimentConfig(scen::scenarioNames().front(), 2);
    std::vector<Round> rounds(3);
    for (Round &r : rounds) {
        r.traced = true;
        const SteadyTime t0 = now();
        const std::vector<csim::PhaseSimResult> results =
            tracedExperiment(config, rig, tracer, -3, r);
        r.wallS = secondsBetween(t0, now());
        tallyExperiment(results, r.exact);
    }
    return rounds;
}

/**
 * The per-layer split of a traced run: registry phase times and work
 * counters of the traced rounds, the counting pass, and the probes.
 * A layer the workload does not run (srv for paper_trace, csim and fpu
 * for the world workloads) is measured by its fixed probe instead, so
 * every per-layer time is a measurement. Fault counts read 0 outside
 * batch_chaos.
 */
std::vector<Metric>
perLayerMetrics(const Plan &plan, const Options &opts, const Measurement &m,
                const ExactCounts &exact, const OpCounts &ops,
                Tracer &tracer)
{
    const std::vector<Round> &rounds = m.rounds;
    const bool worlds = plan.kind != Kind::Trace;
    const double threads = static_cast<double>(plan.threads);
    const double regSteps = static_cast<double>(exact.registrySteps);
    const double opsNarrow = ratio(ops.narrow, ops.steps);
    const double opsLcp = ratio(ops.lcp, ops.steps);
    auto traced = [&](auto value) { return medianOver(rounds, true, value); };
    auto perStepUs = [&](double PhaseTimes::*field) {
        return traced([&](const Round &r) {
            return ratio(r.phases.*field / 1e3, r.exact.registrySteps);
        });
    };
    auto nsPerOp = [&](double PhaseTimes::*field, double opsPerStep) {
        return traced([&](const Round &r) {
            return ratio(r.phases.*field, opsPerStep * r.steps);
        });
    };
    // Probes get spans of their own (group -2).
    auto probe = [&](const char *name, auto fn) {
        const SteadyTime s0 = now();
        const double value = fn();
        tracer.record(name, -2, 0, s0, now());
        return value;
    };
    const int calls = opts.tiny ? 200 : 2000;
    const int counts = opts.tiny ? 2000 : 20000;
    const std::vector<std::string> names = sceneNames(plan);
    const double untracedWall =
        medianOver(rounds, false, [](const Round &r) { return r.wallS; });
    const double tracedWall = traced([](const Round &r) { return r.wallS; });
    const std::vector<Round> probed =
        worlds ? csimProbe(tracer) : srvProbe(plan.threads, tracer);
    const std::vector<Round> &srvRounds = worlds ? rounds : probed;
    const std::vector<Round> &csimRounds = worlds ? probed : rounds;
    const ExactCounts &srvExact = worlds ? exact : probed.front().exact;
    const ExactCounts &csimExact = worlds ? probed.front().exact : exact;
    auto srvTraced = [&](auto value) {
        return medianOver(srvRounds, true, value);
    };
    auto csimTraced = [&](auto value) {
        return medianOver(csimRounds, true, value);
    };
    auto minstrPerS = [](const Round &r) {
        return r.exact.instructions / r.wallS / 1e6;
    };

    return {
        {"srv.parallel_eff", srvTraced([&](const Round &r) {
             return r.worldMsSum / (r.wallS * 1e3 * threads);
         }),
         "ratio"},
        {"srv.tail_ms", srvTraced([](const Round &r) { return r.tailMs; }),
         "ms"},
        {"srv.useful_step_ratio",
         ratio(srvExact.committedSteps, srvExact.registrySteps), "ratio"},
        {"phys.broad_us_per_step", perStepUs(&PhaseTimes::broadNs), "us"},
        {"phys.narrow_us_per_step", perStepUs(&PhaseTimes::narrowNs), "us"},
        {"phys.island_us_per_step", perStepUs(&PhaseTimes::islandNs), "us"},
        {"phys.lcp_us_per_step", perStepUs(&PhaseTimes::lcpNs), "us"},
        {"phys.integrate_us_per_step", perStepUs(&PhaseTimes::integrateNs),
         "us"},
        {"phys.pairs_per_step", ratio(exact.pairs, regSteps), "count"},
        {"phys.contacts_per_step", ratio(exact.contacts, regSteps),
         "count"},
        {"phys.islands_per_step", ratio(exact.islands, regSteps), "count"},
        {"phys.lcp_rows_per_step", ratio(exact.lcpRows, regSteps), "count"},
        {"phys.reexec_ratio",
         ratio(exact.reexecutions, exact.committedSteps), "ratio"},
        {"phys.checkpoint_us", probe("phys.checkpoint", [&] {
             return checkpointMicros(names.front(), opts.tiny ? 5 : 30,
                                     calls, 5);
         }),
         "us"},
        {"phys.pool_for_us.n8", probe("phys.pool_for", [&] {
             return poolForMicros(plan.threads, 8, calls, 5);
         }),
         "us"},
        {"phys.pool_for_us.n64", probe("phys.pool_for", [&] {
             return poolForMicros(plan.threads, 64, calls, 5);
         }),
         "us"},
        {"fp.ops_per_step.narrow", opsNarrow, "count"},
        {"fp.ops_per_step.lcp", opsLcp, "count"},
        {"fp.narrow_ns_per_op", nsPerOp(&PhaseTimes::narrowNs, opsNarrow),
         "ns"},
        {"fp.lcp_ns_per_op", nsPerOp(&PhaseTimes::lcpNs, opsLcp), "ns"},
        {"fp.op_ns.plain", probe("fp.scalar_ops", [&] {
             return scalarOpNs(23, 1 << 18, 5, opts.seed);
         }),
         "ns"},
        {"fp.op_ns.reduced", probe("fp.scalar_ops", [&] {
             return scalarOpNs(8, 1 << 18, 5, opts.seed);
         }),
         "ns"},
        {"fpu.classify_ns_per_op", csimTraced([](const Round &r) {
             return ratio(r.classifyS * 1e9, r.classifiedOps);
         }),
         "ns"},
        {"fpu.local_service_ratio",
         ratio(csimExact.localOps, csimExact.serviceOps), "ratio"},
        {"csim.capture_ms",
         csimTraced([](const Round &r) { return r.captureS * 1e3; }), "ms"},
        {"csim.classify_ms",
         csimTraced([](const Round &r) { return r.classifyS * 1e3; }),
         "ms"},
        {"csim.dispatch_ms",
         csimTraced([](const Round &r) { return r.dispatchS * 1e3; }),
         "ms"},
        {"csim.dispatch_ns_per_instr", csimTraced([](const Round &r) {
             return ratio(r.dispatchS * 1e9, r.exact.instructions);
         }),
         "ns"},
        // paper_trace takes the rate from its untraced rounds.
        {"csim.sim_minstr_per_s",
         worlds ? csimTraced(minstrPerS)
                : medianOver(rounds, false, minstrPerS),
         "Minstr/s"},
        {"csim.registry_count_ns.1t", probe("csim.registry_count", [&] {
             return registryCountNs(1, counts, 5);
         }),
         "ns"},
        {"csim.registry_count_ns.4t", probe("csim.registry_count", [&] {
             return registryCountNs(plan.threads, counts, 5);
         }),
         "ns"},
        {"fault.injected", static_cast<double>(exact.injected), "count"},
        {"fault.rollbacks", static_cast<double>(exact.rollbacks), "count"},
        {"fault.rehab_reruns", static_cast<double>(exact.rehabReruns),
         "count"},
        {"scen.build_ms",
         probe("scen.build", [&] { return scenarioBuildMs(names, 5); }),
         "ms"},
        {"trace_overhead", ratio(tracedWall - untracedWall, untracedWall),
         "ratio"},
    };
}

} // namespace

WorkloadResult
runWorkload(const Options &opts, const DigestTable &pinned, Tracer &tracer)
{
    const Plan plan = makePlan(opts);
    const Measurement m = measure(plan, opts, tracer);
    const std::vector<Round> &rounds = m.rounds;
    WorkloadResult out;
    for (const Round &r : rounds) {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "workload %s: %s; %zu rounds in %.2f s on %d threads",
                  plan.name.c_str(), plan.size.c_str(), rounds.size(),
                  m.seconds, plan.threads);
    out.notes.push_back(line);
    std::string walls = "round wall s:";
    for (const Round &r : rounds) {
        std::snprintf(line, sizeof(line), " %.3f%s", r.wallS,
                      r.traced ? "t" : "");
        walls += line;
    }
    out.notes.push_back(walls);
    std::string setups = "setup s:";
    for (double v : m.setups) {
        std::snprintf(line, sizeof(line), " %.4f", v);
        setups += line;
    }
    out.notes.push_back(setups);
    std::snprintf(line, sizeof(line),
                  "fail_ratio %.6g (%ld of %ld worlds not Completed)",
                  ratio(out.failed, out.attempted), out.failed,
                  out.attempted);
    out.notes.push_back(line);

    // ---- Correctness gate -------------------------------------------
    auto fail = [&](const std::string &why) {
        if (out.correct) {
            out.correct = false;
            out.error = why;
        }
    };
    for (size_t i = 1; i < rounds.size(); ++i) {
        if (rounds[i].digest != rounds[0].digest)
            fail("round " + std::to_string(i) + " output digest " +
                 hex(rounds[i].digest) + " differs from round 0 " +
                 hex(rounds[0].digest));
    }
    // The paper scenarios do not depend on the seed (it only orders
    // them), so their digests are pinned for every seed.
    const bool pinnedSeed =
        plan.kind != Kind::Batch || opts.seed == kDefaultSeed;
    const std::string key = plan.name + " " + plan.scale + " ";
    out.notes.push_back("digest outputs " + hex(rounds[0].digest));
    if (!opts.digests.empty() && pinnedSeed) {
        const std::string err =
            checkPinned(pinned, key + "outputs", rounds[0].digest);
        if (!err.empty())
            fail(err);
    }
    if (plan.kind == Kind::Batch && opts.seed != kDefaultSeed) {
        const std::string err =
            checkSerialReplay(plan, opts.seed, m.firstResults);
        if (!err.empty())
            fail(err);
    }

    if (!opts.trace) {
        out.metrics = endToEndMetrics(plan, m, out.notes);
        return out;
    }

    // ---- Exact-count gate -------------------------------------------
    const Round *first = nullptr;
    for (const Round &r : rounds) {
        if (!r.traced)
            continue;
        if (!first)
            first = &r;
        else if (r.exact.digest() != first->exact.digest())
            fail("exact counts of a traced round differ from the first "
                 "traced round (drift, not noise)");
    }
    const SteadyTime c0 = now();
    const OpCounts ops = countOps(countJobs(plan));
    tracer.record("fp.count_ops", -2, 0, c0, now());
    Digest exact;
    exact.add(first->exact.digest());
    exact.add(ops.narrow);
    exact.add(ops.lcp);
    exact.add(ops.steps);
    out.notes.push_back("digest exact " + hex(exact.value()));
    if (!opts.digests.empty() && pinnedSeed) {
        const std::string err =
            checkPinned(pinned, key + "exact", exact.value());
        if (!err.empty())
            fail(err);
    }

    out.metrics =
        perLayerMetrics(plan, opts, m, first->exact, ops, tracer);
    std::snprintf(line, sizeof(line), "traced: %zu spans in memory",
                  tracer.size());
    out.notes.push_back(line);
    return out;
}

} // namespace perfbench
