/**
 * @file
 * Determinism guard for the pooled bio hot path: recycling bios
 * through BioPool (and delivering completions via inline callbacks)
 * must be invisible to the simulation. Every observable — counters,
 * latency histograms, throughput, and the full telemetry record
 * stream — must be byte-identical between the pooled fast path and
 * the BioPool bypass lane (plain heap allocation, the pre-pool
 * behaviour), on both a Fig. 9-shaped single-host run and a
 * Fig. 18-shaped fleet run at any worker count.
 */

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "blk/block_layer.hh"
#include "cgroup/cgroup_tree.hh"
#include "controllers/factory.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "fleet/fleet_sim.hh"
#include "profile/device_profiler.hh"
#include "sim/simulator.hh"
#include "stat/telemetry.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

/** Restores the process-wide bypass flag on scope exit. */
struct BypassGuard
{
    explicit BypassGuard(bool on) { blk::BioPool::setBypass(on); }
    ~BypassGuard() { blk::BioPool::setBypass(false); }
};

void
append(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
    out += '\n';
}

void
appendHistogram(std::string &out, const char *name,
                const stat::Histogram &h)
{
    append(out, "%s count=%llu total=%lld min=%lld max=%lld "
                "p50=%lld p99=%lld mean=%.17g stddev=%.17g",
           name, static_cast<unsigned long long>(h.count()),
           static_cast<long long>(h.total()),
           static_cast<long long>(h.minValue()),
           static_cast<long long>(h.maxValue()),
           static_cast<long long>(h.quantile(0.50)),
           static_cast<long long>(h.quantile(0.99)), h.mean(),
           h.stddev());
}

/**
 * Fig. 9-shaped run: IOCost installed with a permissive config (full
 * issue path, no effective throttling), submission CPU model on, a
 * saturating random-read job, per-completion telemetry captured.
 * Returns a fingerprint string covering every observable.
 */
std::string
fig9Fingerprint()
{
    core::IoCostConfig ioc;
    const auto &prof = profile::DeviceProfiler::profileSsd(
        device::enterpriseSsd());
    ioc.model = core::CostModel::fromConfig(prof.model);
    ioc.qos.vrateMin = 1.0;
    ioc.qos.vrateMax = 10.0;
    ioc.qos.readLatTarget = 1 * sim::kSec;
    ioc.qos.writeLatTarget = 1 * sim::kSec;

    sim::Simulator sim(4242);
    device::SsdModel device(sim, device::enterpriseSsd());
    cgroup::CgroupTree tree;
    blk::BlockLayer layer(sim, device, tree);
    layer.setSubmissionCpuEnabled(true);
    controllers::ControllerSpec ctl("iocost");
    ctl.iocost = ioc;
    layer.setController(controllers::makeController(ctl));

    stat::RingSink sink;
    layer.setTelemetrySink(&sink);
    layer.telemetry().setDetail(true);

    const auto cg = tree.create(cgroup::kRoot, "fio");
    workload::FioConfig cfg;
    cfg.iodepth = 64;
    workload::FioWorkload job(sim, layer, cg, cfg);
    job.start();
    sim.runUntil(20 * sim::kMsec);

    std::string fp;
    append(fp, "submitted=%llu completed=%llu merged=%llu",
           static_cast<unsigned long long>(layer.submitted()),
           static_cast<unsigned long long>(layer.completed()),
           static_cast<unsigned long long>(layer.mergedBios()));
    append(fp, "job completed=%llu iops=%.17g",
           static_cast<unsigned long long>(job.completed()),
           job.iops());
    appendHistogram(fp, "job_latency", job.latency());
    const auto &st = layer.stats(cg);
    append(fp, "cg reads=%llu writes=%llu rbytes=%llu wbytes=%llu",
           static_cast<unsigned long long>(st.reads),
           static_cast<unsigned long long>(st.writes),
           static_cast<unsigned long long>(st.readBytes),
           static_cast<unsigned long long>(st.writeBytes));
    appendHistogram(fp, "cg_total", st.totalLatency);
    appendHistogram(fp, "cg_device", st.deviceLatency);
    append(fp, "records=%zu", sink.size());
    for (const stat::Record &r : sink.records())
        fp += stat::toJsonl(r);
    return fp;
}

/** Small-but-contended fleet (the Fig. 18 bench's fleet and seed). */
fleet::FleetScenario
tinyFleet()
{
    fleet::FleetScenario sc = fleet::FleetScenario::parse(
        std::string(fleet::kMigrationFleetSpec) +
        " hosts=6 days=5 migration=1..4 warmup=300ms slice=250ms "
        "fetch=2M cleanup=40 seed=1818");
    sc.telemetry = true;
    return sc;
}

/**
 * Fig. 18-shaped run: the staged-migration fleet study with per-slice
 * telemetry capture, reduced to day results + the full outcome grid.
 */
std::string
fig18Fingerprint(unsigned jobs)
{
    fleet::RunOptions opts;
    opts.jobs = jobs;
    std::vector<fleet::HostDayOutcome> outcomes;
    const auto days =
        fleet::FleetSim::runScenario(tinyFleet(), opts, &outcomes).days;

    std::string fp;
    for (const fleet::FleetDayResult &d : days) {
        append(fp,
               "day=%u frac=%.17g fa=%u ff=%u ca=%u cf=%u", d.day,
               d.fractionOnIoCost, d.fetchAttempts, d.fetchFailures,
               d.cleanupAttempts, d.cleanupFailures);
    }
    append(fp, "outcomes=%zu", outcomes.size());
    for (const fleet::HostDayOutcome &o : outcomes) {
        append(fp, "ff=%d cf=%d ft=%lld ct=%lld nrec=%zu",
               o.fetchFailed ? 1 : 0, o.cleanupFailed ? 1 : 0,
               static_cast<long long>(o.fetchTime),
               static_cast<long long>(o.cleanupTime),
               o.records.size());
        for (const stat::Record &r : o.records)
            fp += stat::toJsonl(r);
    }
    return fp;
}

TEST(BioPoolDeterminism, Fig9ShapedRunMatchesBypass)
{
    std::string pooled;
    std::string heap;
    {
        BypassGuard guard(false);
        pooled = fig9Fingerprint();
    }
    {
        BypassGuard guard(true);
        heap = fig9Fingerprint();
    }
    // Sanity: the run produced real work and real telemetry, so a
    // match is not vacuous.
    EXPECT_NE(pooled.find("records="), std::string::npos);
    EXPECT_GT(pooled.size(), 10'000u);
    EXPECT_EQ(pooled, heap);
}

TEST(BioPoolDeterminism, Fig18ShapedRunMatchesBypass)
{
    std::string pooled;
    std::string heap;
    {
        BypassGuard guard(false);
        pooled = fig18Fingerprint(1);
    }
    {
        BypassGuard guard(true);
        heap = fig18Fingerprint(1);
    }
    EXPECT_GT(pooled.size(), 1'000u);
    EXPECT_EQ(pooled, heap);
}

TEST(BioPoolDeterminism, Fig18ShapedRunMatchesAcrossJobs)
{
    // Each worker thread recycles through its own thread-local pool;
    // the fan-out must stay byte-identical to the sequential run.
    const std::string seq = fig18Fingerprint(1);
    const std::string par = fig18Fingerprint(3);
    EXPECT_EQ(seq, par);
}

} // namespace
