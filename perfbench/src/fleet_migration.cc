/**
 * @file
 * fleet_migration: the §4.8 staged iolatency -> iocost migration over
 * an old-gen/new-gen SSD mix, through FleetSim::runScenario at two
 * workers. The sharded engine, its worker pool and the per-host-day
 * construction of Host, controller and cgroup tree weigh far more
 * here than in direct_mixed, and profiling both device classes makes
 * this the heaviest set-up.
 *
 * One op is one full run of a small fixed fleet study (host-day
 * slices shortened to 1.2 s after a 1.5 s warm-up so that a run
 * holds enough ops). The seed draws each op's shard count, between
 * one and two hosts per shard; the aggregate must be byte-identical
 * under every layout, so each op is checked against the first.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "fleet/fleet_scenario.hh"
#include "fleet/fleet_sim.hh"
#include "profile/device_profiler.hh"
#include "sim/rng.hh"

namespace perfbench {
namespace {

using namespace iocost;

constexpr const char *kFleet =
    "hosts=8 days=5 seed=1818 migration=1..4:100 "
    "devices=oldgen:50,newgen:50 slice=1200ms warmup=1500ms";

constexpr unsigned kWorkers = 2;

/** Everything the aggregate says, layout fields excluded. */
std::string
fingerprint(const fleet::FleetAggregate &a)
{
    std::string s = std::to_string(a.hostDays) + "/" +
                    std::to_string(a.hosts);
    char buf[160];
    for (const fleet::FleetDayResult &d : a.days) {
        std::snprintf(buf, sizeof buf, ";%u:%.17g:%u:%u:%u:%u", d.day,
                      d.fractionOnIoCost, d.fetchAttempts,
                      d.fetchFailures, d.cleanupAttempts,
                      d.cleanupFailures);
        s += buf;
    }
    for (unsigned c = 0; c < 2; ++c) {
        for (const stat::Histogram *h :
             {&a.fetchTime[c], &a.cleanupTime[c]}) {
            std::snprintf(buf, sizeof buf, ";%llu:%lld:%lld:%lld",
                          static_cast<unsigned long long>(h->count()),
                          static_cast<long long>(h->total()),
                          static_cast<long long>(h->quantile(0.5)),
                          static_cast<long long>(h->quantile(0.99)));
            s += buf;
        }
    }
    return s;
}

/** Aggregate covers hosts x days: one fetch and one cleanup each. */
bool
covers(const fleet::FleetAggregate &a, const fleet::FleetScenario &sc)
{
    const uint64_t expect = uint64_t{sc.hosts} * sc.days;
    uint64_t fetches = 0, cleanups = 0;
    for (const fleet::FleetDayResult &d : a.days) {
        fetches += d.fetchAttempts;
        cleanups += d.cleanupAttempts;
    }
    return a.hostDays == expect && a.days.size() == sc.days &&
           fetches == expect && cleanups == expect;
}

/**
 * Host time of every host-day of the study run one after another
 * through FleetSim::runHostDay, the entry point the shards use.
 */
int64_t
sequentialPassNs(const fleet::FleetScenario &sc)
{
    const int64_t t0 = nowNs();
    for (unsigned host = 0; host < sc.hosts; ++host) {
        const fleet::FleetScenario::DeviceShare &dev =
            sc.devices[sc.deviceIndexFor(host)];
        for (unsigned day = 0; day < sc.days; ++day) {
            const char *ctl =
                day >= sc.migrationDay(host) ? "iocost" : "iolatency";
            fleet::FleetSim::runHostDay(sc, dev.spec, sc.workloadFor(host),
                                        ctl, sc.hostDaySeed(day, host));
        }
    }
    return nowNs() - t0;
}

} // namespace

Result
runFleetMigration(const Options &opt)
{
    Result r;
    const fleet::FleetScenario sc = fleet::FleetScenario::parse(kFleet);

    const int64_t setupStart = nowNs();
    for (const fleet::FleetScenario::DeviceShare &d : sc.devices)
        profile::DeviceProfiler::profileSsd(d.spec);
    r.setupS = static_cast<double>(nowNs() - setupStart) / 1e9;
    if (opt.setupOnly)
        return r;

    sim::Rng rng(opt.seed);
    const unsigned minOps = opt.tiny ? 2 : 3;
    // Each op runs on the next pair of CPUs (see Window); the pool's
    // workers inherit the calling thread's CPUs.
    const std::vector<int> cpus = allowedCpus();
    std::vector<Window> windows;
    std::vector<int64_t> opNs, seqNs;
    std::string first;
    fleet::FleetAggregate firstAgg;
    uint64_t failedOps = 0;
    const int64_t loopStart = nowNs();
    const int64_t deadline =
        loopStart + static_cast<int64_t>(opt.seconds * 1e9);
    while (opNs.size() < minOps || nowNs() < deadline) {
        fleet::RunOptions ro;
        ro.jobs = kWorkers;
        ro.shards = sc.hosts / 2 +
                    static_cast<unsigned>(rng.below(sc.hosts / 2 + 1));
        const size_t k = opNs.size();
        pinThreads({cpus[k % cpus.size()], cpus[(k + 1) % cpus.size()]});
        bool ok = true;
        const int64_t t0 = nowNs();
        try {
            fleet::FleetAggregate agg = fleet::FleetSim::runScenario(sc, ro);
            opNs.push_back(nowNs() - t0);
            const std::string fp = fingerprint(agg);
            ok = covers(agg, sc) && (first.empty() || fp == first);
            if (first.empty()) {
                first = fp;
                firstAgg = std::move(agg);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "fleet op failed: %s\n", e.what());
            opNs.push_back(nowNs() - t0);
            ok = false;
        }
        failedOps += !ok;
        windows.push_back({static_cast<double>(sc.hosts * sc.days),
                           opNs.back(), {opNs.back()}});
        // Traced: the same host-days once more, sequentially, right
        // after the op and on the same CPUs, so both see one machine
        // state.
        if (opt.trace)
            seqNs.push_back(sequentialPassNs(sc));
    }
    pinThreads(cpus);
    r.attempted = opNs.size();
    r.failed = failedOps;
    r.checks.push_back({"covers_and_layout_invariant", opNs.size(),
                        failedOps});

    // Simulated outcome: package fetches on iocost host-days, and the
    // fleet-wide fetch failure rate over the migration (Fig. 18).
    const stat::Histogram &fetch = firstAgg.fetchTime[fleet::kCtlIoCost];
    uint64_t attempts = 0, failures = 0;
    for (const fleet::FleetDayResult &d : firstAgg.days) {
        attempts += d.fetchAttempts;
        failures += d.fetchFailures;
    }
    r.addSim("sim_p99_us", static_cast<double>(fetch.quantile(0.99)) / 1e3,
             "sim_us");
    r.addSim("sim_mbps",
             fetch.total() > 0
                 ? static_cast<double>(fetch.count() * sc.fetchBytes) /
                       (static_cast<double>(fetch.total()) / 1e9) / 1e6
                 : 0.0,
             "MB/s");
    const double failPct =
        attempts ? 100.0 * static_cast<double>(failures) /
                       static_cast<double>(attempts)
                 : 0.0;
    r.addSim("fetch_fail_pct", failPct, "%");

    if (!opt.trace) {
        addHostTimeMetrics(r, std::move(windows), peakRssMb());
        for (const Metric &m : r.sim) {
            if (m.name != "fetch_fail_pct")
                r.metrics.push_back(m);
        }
        return r;
    }

    double opSum = 0, seqSum = 0;
    for (size_t k = 0; k < opNs.size(); ++k) {
        opSum += static_cast<double>(opNs[k]);
        seqSum += static_cast<double>(seqNs[k]);
    }
    const double workerNs = opSum * kWorkers;
    const double studyDays = static_cast<double>(sc.hosts * sc.days);

    r.add("profile.ms", r.setupS * 1e3, "ms");
    r.add("fleet.host_day_ms",
          seqSum / static_cast<double>(seqNs.size()) / studyDays / 1e6,
          "ms");
    r.add("fleet.pool_efficiency", seqSum / workerNs, "ratio");
    r.add("fleet.fetch_fail_pct", failPct, "%");
    // Worker time against estimated host-day time; the residual is
    // pool idle (spin-up, the last shard's tail) and the shard merge.
    // The op loop carries no instrumentation, so tracing costs it
    // nothing.
    addReconciliation(r, {workerNs, seqSum, 1.0});
    return r;
}

} // namespace perfbench
