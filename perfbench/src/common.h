#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

/**
 * @file
 * Shared pieces of the repository benchmark: options, metric records,
 * statistics, the output digest, process resource readings and the
 * in-memory span recorder used by traced runs.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyTime = std::chrono::steady_clock::time_point;

inline SteadyTime
now()
{
    return std::chrono::steady_clock::now();
}

inline double
secondsBetween(SteadyTime a, SteadyTime b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process CPU time (user + system) in seconds. */
double cpuSeconds();
/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Latency percentile with the sample rule of the benchmark: the
 * requested quantile if at least 10 samples lie beyond it, else the
 * highest quantile that has 10 beyond it (the median when fewer than
 * 20 samples exist). @p used receives the quantile actually taken.
 */
double tailPercentile(std::vector<double> v, double q, double *used);

/** 64-bit FNV-1a over a stream of integers. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 1099511628211ull;
        }
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** splitmix64 step: the seeded generator behind every workload input. */
inline uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One reported number. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Spans recorded by traced runs. Each span has its own id, the id of
 * the span that caused it (0 = none) and a group: every span of one
 * world (or one traced scenario) shares the group id. Spans stay in
 * memory until write() at exit.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(now()) {}

    /** Microseconds since the tracer was created. */
    double
    micros(SteadyTime t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    /**
     * A fresh span id, for a span whose children are recorded before
     * it ends (0 when disabled).
     */
    uint64_t reserve();

    /**
     * Record a finished span under @p id (0 = allocate one). @p name
     * must be a string literal.
     */
    void record(const char *name, int64_t group, uint64_t parent,
                SteadyTime start, SteadyTime end, uint64_t id = 0);

    size_t size() const;

    /** Write the spans as Chrome trace-event JSON (Perfetto). */
    bool write(const std::string &path) const;

  private:
    struct Span {
        const char *name;
        uint64_t id;
        uint64_t parent;
        int64_t group;
        double startUs;
        double endUs;
    };

    bool enabled_;
    SteadyTime origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    uint64_t nextId_ = 1;
};

/** Command-line options of the benchmark binary. */
struct Options {
    std::string workload;
    uint64_t seed = 2007;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test sizes: every workload shrunk to a fraction of a second. */
    bool tiny = false;
    int threads = 1; //!< pool threads: min(4, hardware threads)
    std::string digests;  //!< pinned-digest file (empty = none)
    std::string traceOut; //!< span file of a traced run (empty = none)
};

/** The seed whose outputs and exact counts are pinned in the digest file. */
constexpr uint64_t kDefaultSeed = 2007;

/** Pinned digests: "<workload> <scale> <kind>" -> value. */
using DigestTable = std::map<std::string, uint64_t>;

/** Parse a digest file; false (with @p error) on a malformed line. */
bool loadDigests(const std::string &path, DigestTable &out,
                 std::string *error);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
