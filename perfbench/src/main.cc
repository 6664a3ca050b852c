/**
 * @file
 * perfbench — one workload of the repository benchmark per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--setup-only] [--tiny]
 *
 * Prints one JSON object on stdout: the op counts, the correctness
 * checks, the metrics (end-to-end when untraced, per-layer when
 * traced), the simulated outcomes and the build. perfbench/run.py
 * builds this binary, runs it, repeats set-up in fresh processes and
 * prints the benchmark's result line. Unknown flags and workloads
 * are errors; nothing is written to disk.
 */

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"

namespace perfbench {

double
quantileMs(std::vector<int64_t> samples, double q)
{
    if (samples.empty())
        return 0;
    const size_t k = std::min(
        samples.size() - 1,
        static_cast<size_t>(q * static_cast<double>(samples.size())));
    std::nth_element(samples.begin(), samples.begin() + k,
                     samples.end());
    return static_cast<double>(samples[k]) / 1e6;
}

double
peakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss survives execve, so a child of a
    // large parent would report the parent's peak.
    FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    if (cpus.empty())
        cpus.push_back(0);
    return cpus;
}

void
pinThreads(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return;
    while (const dirent *e = readdir(dir)) {
        if (e->d_name[0] != '.')
            sched_setaffinity(std::atoi(e->d_name), sizeof set, &set);
    }
    closedir(dir);
}

void
addHostTimeMetrics(Result &r, std::vector<Window> windows, double rssMb)
{
    for (Window &w : windows) {
        if (w.effort == 0)
            w.effort = w.work;
    }
    std::sort(windows.begin(), windows.end(),
              [](const Window &a, const Window &b) {
                  return a.effort * static_cast<double>(b.ns) >
                         b.effort * static_cast<double>(a.ns);
              });
    windows.resize(std::min(windows.size(),
                            std::max<size_t>(5, windows.size() / 10)));
    double work = 0, ns = 0;
    std::vector<int64_t> opNs;
    for (const Window &w : windows) {
        work += w.work;
        ns += static_cast<double>(w.ns);
        opNs.insert(opNs.end(), w.opNs.begin(), w.opNs.end());
    }
    r.add("work_per_s", ns > 0 ? work / (ns / 1e9) : 0.0, "1/s");
    r.add("op_p50_ms", quantileMs(opNs, 0.5), "ms");
    r.add("op_p90_ms", quantileMs(opNs, 0.9), "ms");
    r.add("peak_rss_mb", rssMb, "MB");
    r.add("setup_s", r.setupS, "s");
    r.opSamples = opNs.size();
}

void
addReconciliation(Result &r, const Reconciliation &rec)
{
    r.add("trace.wall_ms", rec.wallNs / 1e6, "ms");
    r.add("trace.self_sum_ms", rec.selfSumNs / 1e6, "ms");
    r.add("trace.residual_pct",
          rec.wallNs > 0 ? 100.0 * (rec.wallNs - rec.selfSumNs) / rec.wallNs
                         : 0.0,
          "%");
    r.add("trace_overhead_pct", 100.0 * (rec.tracedOverUntraced - 1.0),
          "%");
}

namespace {

/** The end-to-end metrics, in print order (BENCHMARK.json agrees). */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"work_per_s", "1/s"},  {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},       {"sim_p99_us", "sim_us"},
    {"sim_mbps", "MB/s"},
};

/**
 * The per-layer metrics, in print order. Every traced run prints all
 * of them; a layer a workload does not exercise reads 0.
 */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"profile.ms", "ms"},
    {"core.calls", "count"},
    {"core.ns_per_call", "ns"},
    {"device.submits", "count"},
    {"device.accept_ratio", "ratio"},
    {"device.ns_per_submit", "ns"},
    {"stat.records", "count"},
    {"stat.records_per_bio", "ratio"},
    {"stat.ns_per_record", "ns"},
    {"sim.self_ms", "ms"},
    {"blk.completions", "count"},
    {"blk.retries", "count"},
    {"blk.wb_bios", "count"},
    {"mm.ops", "count"},
    {"mm.ns_per_op", "ns"},
    {"mm.read_hit_ratio", "ratio"},
    {"mm.dirty_stalls", "count"},
    {"mm.wb_bytes", "bytes"},
    {"host.snapshot_ms", "ms"},
    {"host.restore_ms", "ms"},
    {"host.snapshot_kib", "KiB"},
    {"whatif.parse_us", "us"},
    {"whatif.branch_ms", "ms"},
    {"whatif.queue_wait_ms", "ms"},
    {"whatif.cache_hit_ratio", "ratio"},
    {"whatif.baseline_ms", "ms"},
    {"fleet.host_day_ms", "ms"},
    {"fleet.pool_efficiency", "ratio"},
    {"fleet.fetch_fail_pct", "%"},
    {"trace.wall_ms", "ms"},
    {"trace.self_sum_ms", "ms"},
    {"trace.residual_pct", "%"},
    {"trace_overhead_pct", "%"},
};

/**
 * Put a workload's metrics into the canonical order, adding the
 * per-layer metrics it does not exercise as 0. A metric outside the
 * table or with the wrong unit is a benchmark bug.
 */
std::vector<Metric>
canonicalMetrics(const std::vector<Metric> &got, bool traced)
{
    const auto &table = traced ? kPerLayer : kEndToEnd;
    std::vector<Metric> out;
    for (const auto &[name, unit] : table) {
        Metric m{name, 0.0, unit};
        bool found = false;
        for (const Metric &g : got) {
            if (g.name != name)
                continue;
            if (found || g.unit != unit)
                throw std::logic_error("metric " + name +
                                       " repeated or mis-united");
            m.value = g.value;
            found = true;
        }
        if (!found && !traced)
            throw std::logic_error("end-to-end metric " + name +
                                   " missing");
        out.push_back(m);
    }
    if (out.size() < got.size())
        throw std::logic_error("metric outside the benchmark's table");
    return out;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{direct_mixed|buffered_writeback|whatif_branch|"
                 "fleet_migration} --seed N --seconds S --trace 0|1 "
                 "[--setup-only] [--tiny]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != v.npos ||
        v.size() > 19)
        usage(flag + " wants a non-negative integer, got '" + v + "'");
    return std::stoull(v);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = parseUnsigned(a, value());
            haveSeed = true;
        } else if (a == "--seconds") {
            const uint64_t s = parseUnsigned(a, value());
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            o.seconds = static_cast<double>(s);
            haveSeconds = true;
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--setup-only") {
            o.setupOnly = true;
        } else if (a == "--tiny") {
            o.tiny = true;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    std::printf("{");
    for (size_t i = 0; i < ms.size(); ++i) {
        if (!std::isfinite(ms[i].value))
            throw std::runtime_error("metric " + ms[i].name +
                                     " is not finite");
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i ? "," : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    }
    std::printf("}");
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    const std::map<std::string, Result (*)(const Options &)> workloads =
        {
            {"direct_mixed", runDirectMixed},
            {"buffered_writeback", runBufferedWriteback},
            {"whatif_branch", runWhatifBranch},
            {"fleet_migration", runFleetMigration},
        };
    const auto it = workloads.find(opt.workload);
    if (it == workloads.end())
        usage("unknown workload '" + opt.workload + "'");

    try {
        Result r = it->second(opt);
        if (!opt.setupOnly)
            r.metrics = canonicalMetrics(r.metrics, opt.trace);
        std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                    "\"setup_only\":%s,\"attempted\":%llu,"
                    "\"failed\":%llu,\"op_samples\":%llu,"
                    "\"setup_s\":%.17g,\"checks\":{",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    opt.trace ? 1 : 0, opt.setupOnly ? "true" : "false",
                    static_cast<unsigned long long>(r.attempted),
                    static_cast<unsigned long long>(r.failed),
                    static_cast<unsigned long long>(r.opSamples),
                    r.setupS);
        for (size_t i = 0; i < r.checks.size(); ++i) {
            std::printf("%s\"%s\":{\"attempted\":%llu,\"failed\":%llu}",
                        i ? "," : "", r.checks[i].name.c_str(),
                        static_cast<unsigned long long>(
                            r.checks[i].attempted),
                        static_cast<unsigned long long>(
                            r.checks[i].failed));
        }
        std::printf("},\"metrics\":");
        printMetrics(r.metrics);
        std::printf(",\"sim\":");
        printMetrics(r.sim);
        std::printf(",\"build\":{\"compiler\":\"%s\",\"build_type\":\"%s\","
                    "\"sanitized\":%s,\"optimized\":%s}}\n",
                    PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                    kSanitized ? "true" : "false",
                    kOptimized ? "true" : "false");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }
    return 0;
}
