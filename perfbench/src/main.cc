/**
 * @file
 * The repository benchmark binary. One invocation runs one workload:
 *
 *   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *             [--tiny] [--digests FILE] [--trace-out FILE]
 *
 * The pool has min(4, nproc) threads.
 *
 * It prints the environment, human-readable notes, every metric with
 * its unit, and as the last line one JSON object:
 * {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * the per-layer set. Exit code 0 = correct, 1 = an output or exact
 * count did not match, 2 = usage or run-time error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace perfbench {

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
        1e-6;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives execve and
    // would report the launching process's peak when that was larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tailPercentile(std::vector<double> v, double q, double *used)
{
    const double n = static_cast<double>(v.size());
    // At least 10 samples must lie above the chosen rank.
    const double highest = n > 0 ? 1.0 - 10.0 / n : 0.0;
    const double take = std::max(0.5, std::min(q, highest));
    if (used)
        *used = take;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank.
    const size_t rank = static_cast<size_t>(std::ceil(take * n));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

uint64_t
Tracer::reserve()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::record(const char *name, int64_t group, uint64_t parent,
               SteadyTime start, SteadyTime end, uint64_t id)
{
    if (!enabled_)
        return;
    const double s = micros(start);
    const double e = micros(end);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, id ? id : nextId_++, parent, group, s, e});
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %" PRId64 ", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                     "}}%s\n",
                     s.name, s.group, s.startUs, s.endUs - s.startUs, s.id,
                     s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

bool
loadDigests(const std::string &path, DigestTable &out, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read digest file " + path;
        return false;
    }
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, scale, kind, value, extra;
        if (!(fields >> workload >> scale >> kind >> value) ||
            (fields >> extra) || value.size() != 16 ||
            value.find_first_not_of("0123456789abcdef") !=
                std::string::npos) {
            *error = path + ":" + std::to_string(lineNo) +
                ": expected '<workload> <scale> <kind> <16 hex digits>'";
            return false;
        }
        out[workload + " " + scale + " " + kind] =
            std::strtoull(value.c_str(), nullptr, 16);
    }
    return true;
}

} // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--tiny] "
                 "[--digests FILE] [--trace-out FILE]\n"
                 "workloads:",
                 why.c_str());
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

uint64_t
parseUnsigned(const char *flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage(std::string(flag) + " needs a non-negative integer, got '" +
              text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            opts.workload = value();
        } else if (flag == "--seed") {
            opts.seed = parseUnsigned("--seed", value());
        } else if (flag == "--seconds") {
            const uint64_t s = parseUnsigned("--seconds", value());
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            opts.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace must be 0 or 1");
            opts.trace = t == "1";
        } else if (flag == "--tiny") {
            opts.tiny = true;
        } else if (flag == "--digests") {
            opts.digests = value();
        } else if (flag == "--trace-out") {
            opts.traceOut = value();
        } else {
            usage("unknown argument '" + flag + "'");
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opts.workload) == names.end())
        usage("unknown or missing --workload '" + opts.workload + "'");
    const unsigned hw = std::thread::hardware_concurrency();
    opts.threads = static_cast<int>(std::clamp(hw, 1u, 4u));
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    DigestTable pinned;
    if (!opts.digests.empty()) {
        std::string error;
        if (!loadDigests(opts.digests, pinned, &error)) {
            std::fprintf(stderr, "perfbench: %s\n", error.c_str());
            return 2;
        }
    }

    std::printf("perfbench: %s, flags '%s', build type %s, nproc %u, "
                "%d threads, seed %" PRIu64 ", %s\n",
                PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
                PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                opts.threads, opts.seed,
                opts.trace ? "traced" : "untraced");

    Tracer tracer(opts.trace);
    WorkloadResult result;
    try {
        result = runWorkload(opts, pinned, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    if (opts.trace && !opts.traceOut.empty() &&
        !tracer.write(opts.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opts.traceOut.c_str());
        return 2;
    }

    for (const std::string &note : result.notes)
        std::printf("%s\n", note.c_str());
    if (!result.correct) {
        // A wrong output fails the run; no numbers are reported.
        std::fprintf(stderr, "perfbench: INCORRECT: %s\n",
                     result.error.c_str());
        std::printf("{\"correct\": false, \"attempted\": %ld, "
                    "\"failed\": %ld, \"metrics\": {}}\n",
                    result.attempted, result.failed);
        return 1;
    }
    for (const Metric &m : result.metrics)
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": true, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                result.attempted, result.failed);
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
