/**
 * @file
 * Chaos benchmark: a device degrades mid-run (latency multiplier +
 * transient error burst via the fault injector) while a protected
 * latency-sensitive reader shares it with a saturating batch writer.
 *
 * iocost, driving vrate from its QoS latency target and from the
 * error-burst saturation signal, must keep the protected cgroup's
 * p99 read latency bounded through the degradation window.
 * blk-throttle — static limits tuned for the healthy device — keeps
 * admitting the batch scanner at its healthy-device rate into a
 * device running at a sixth of that capacity; the backlog swallows
 * the protected reader's tail.
 *
 * The bench is also a determinism gate for the fault path: the same
 * seeded run must serialize byte-identical telemetry twice, and a
 * degraded fleet must produce identical outcomes at --jobs 1 and 4.
 * Exits nonzero if any PASS condition fails.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "controllers/blk_throttle.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "fleet/fleet_sim.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "stat/telemetry.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

/** Degradation window [10s, 20s): 6x service time, 2% errors. */
constexpr const char *kFaults =
    "lat@10s+10s=6,err@10s+10s=0.02,retries=3,backoff=200us";
constexpr double kDegradeStart = 10.0;
constexpr double kDegradeEnd = 20.0;

struct RunMetrics
{
    sim::Time healthyP99 = 0;  ///< web p99 over [5s, 10s)
    sim::Time degradedP99 = 0; ///< web p99 over [10s, 20s)
    uint64_t healthyReads = 0;
    uint64_t degradedReads = 0;
    uint64_t errors = 0;
    uint64_t retries = 0;
    uint64_t timeouts = 0;
    uint64_t failed = 0;
    std::string digest; ///< serialized telemetry (detail off)
};

/**
 * One 20-second run: web (protected, open-loop 4k random reads) vs
 * batch (a saturating 4k random-read scanner) through @p mechanism
 * on a new-gen SSD that degrades over [10s, 20s).
 */
RunMetrics
runOne(const std::string &mechanism)
{
    sim::Simulator sim(97);
    const device::SsdSpec spec = device::newGenSsd();
    const auto &prof = profile::DeviceProfiler::profileSsd(spec);

    stat::RingSink ring;
    host::HostOptions opts;
    opts.controller = mechanism;
    opts.controller.iocost.model =
        core::CostModel::fromConfig(prof.model);
    opts.controller.iocost.qos.readLatQuantile = 0.95;
    opts.controller.iocost.qos.readLatTarget = 300 * sim::kUsec;
    opts.controller.iocost.qos.writeLatTarget = 5 * sim::kMsec;
    opts.controller.iocost.qos.period = 10 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 0.1;
    opts.controller.iocost.qos.vrateMax = 1.0;
    opts.telemetrySink = &ring;
    opts.faults = kFaults;

    host::Host host(sim,
                    std::make_unique<device::SsdModel>(sim, spec),
                    opts);
    const auto web = host.addWorkload("web", 200);
    const auto batch = host.addWorkload("batch", 100);

    if (mechanism == "blk-throttle") {
        // Static limits tuned for the HEALTHY device: the scanner
        // is capped at 80% of profiled random-read IOPS, which
        // leaves the protected reader comfortable headroom — while
        // the device is fine. During the degradation window the
        // token bucket keeps admitting that same rate into a device
        // with a sixth of the capacity.
        auto *thr = dynamic_cast<controllers::BlkThrottle *>(
            host.layer().controller());
        thr->setLimits(batch, {.riops = prof.randReadIops * 0.8});
    }

    workload::FioConfig rf;
    rf.name = "web";
    rf.arrival = workload::Arrival::Rate;
    rf.ratePerSec = 2000;
    workload::FioWorkload reads(sim, host.layer(), web, rf);

    workload::FioConfig wf;
    wf.name = "batch";
    wf.iodepth = 64;
    wf.offsetBase = 1ull << 40;
    workload::FioWorkload scanner(sim, host.layer(), batch, wf);

    reads.start();
    scanner.start();

    RunMetrics m;
    // Warmup [0,5s), healthy measurement [5s,10s), degraded
    // measurement [10s,20s) — stats reset at each boundary.
    sim.at(5 * sim::kSec, [&] { reads.resetStats(); });
    sim.at(10 * sim::kSec, [&] {
        m.healthyP99 = reads.latency().quantile(0.99);
        m.healthyReads = reads.latency().count();
        reads.resetStats();
    });
    sim.runUntil(20 * sim::kSec);

    m.degradedP99 = reads.latency().quantile(0.99);
    m.degradedReads = reads.latency().count();
    m.errors = host.layer().deviceErrors();
    m.retries = host.layer().retries();
    m.timeouts = host.layer().timeouts();
    m.failed = host.layer().failedBios();
    for (const stat::Record &r : ring.records())
        m.digest += stat::toJsonl(r);
    return m;
}

int
check(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Uniform flag set; this chaos drill pins its own fault window
    // (the pass/fail checks depend on it), so --faults is ignored.
    (void)bench::parseArgs(argc, argv);

    bench::banner(
        "Chaos: degraded device vs IO control",
        "A new-gen SSD degrades over [10s, 20s) (6x latency, 2% "
        "transient\nerrors). Protected open-loop reader vs "
        "saturating batch scanner.\niocost must hold the reader's "
        "p99 through the window; blk-throttle's\nstatic "
        "healthy-device limits must not.");

    const RunMetrics ioc = runOne("iocost");
    const RunMetrics thr = runOne("blk-throttle");

    bench::Table table({"mechanism", "healthy p99", "degraded p99",
                        "degraded reads", "errors", "retries",
                        "failed"});
    table.row({"iocost", bench::fmtTime(ioc.healthyP99),
               bench::fmtTime(ioc.degradedP99),
               bench::fmtCount(double(ioc.degradedReads)),
               bench::fmt("%.0f", double(ioc.errors)),
               bench::fmt("%.0f", double(ioc.retries)),
               bench::fmt("%.0f", double(ioc.failed))});
    table.row({"blk-throttle",
               bench::fmtTime(thr.healthyP99),
               bench::fmtTime(thr.degradedP99),
               bench::fmtCount(double(thr.degradedReads)),
               bench::fmt("%.0f", double(thr.errors)),
               bench::fmt("%.0f", double(thr.retries)),
               bench::fmt("%.0f", double(thr.failed))});
    table.print();

    std::printf("\nDegradation window: [%.0fs, %.0fs)  faults: %s\n\n",
                kDegradeStart, kDegradeEnd, kFaults);

    int fails = 0;

    // Both stacks exercised the error path (window really fired).
    fails += check(ioc.errors > 0 && thr.errors > 0,
                   "fault window injected errors on both stacks");
    fails += check(ioc.retries > 0,
                   "transient errors were retried");

    // iocost holds the protected reader's tail: degraded p99 within
    // 4x its QoS read target (2ms) despite the 6x device slowdown.
    fails += check(ioc.degradedP99 <= 8 * sim::kMsec,
                   "iocost holds protected p99 <= 8ms while degraded");

    // The static-limit controller misses by a wide margin.
    fails += check(thr.degradedP99 >= 2 * ioc.degradedP99,
                   "blk-throttle degraded p99 >= 2x iocost's");

    // The reader kept completing IO under iocost.
    fails += check(ioc.degradedReads >=
                       uint64_t(2000 * (kDegradeEnd - kDegradeStart) *
                                0.8),
                   "iocost reader completed >= 80% of offered rate");

    // Determinism: an identical seeded run replays byte-identically.
    const RunMetrics ioc2 = runOne("iocost");
    fails += check(ioc.digest == ioc2.digest && !ioc.digest.empty(),
                   "repeated seeded run is byte-identical");

    // Degraded fleet: identical outcomes at --jobs 1 and 4.
    fleet::FleetScenario sc = fleet::FleetScenario::parse(
        std::string(fleet::kMigrationFleetSpec) +
        " hosts=4 days=2 seed=91 migration=1..2 slice=250ms "
        "warmup=300ms fetch=2M cleanup=40 "
        "faults=lat@350ms+100ms=3,err@350ms+150ms=0.08");
    sc.telemetry = true;
    std::vector<fleet::HostDayOutcome> seq, par;
    fleet::RunOptions opts;
    fleet::FleetSim::runScenario(sc, opts, &seq);
    opts.jobs = 4;
    fleet::FleetSim::runScenario(sc, opts, &par);
    std::string dseq, dpar;
    for (const auto &o : seq)
        for (const stat::Record &r : o.records)
            dseq += stat::toJsonl(r);
    for (const auto &o : par)
        for (const stat::Record &r : o.records)
            dpar += stat::toJsonl(r);
    fails += check(dseq == dpar && !dseq.empty(),
                   "degraded fleet identical at --jobs 1 and 4");

    std::printf("\n%s (%d failing)\n", fails ? "FAIL" : "PASS",
                fails);
    return fails ? 1 : 0;
}
