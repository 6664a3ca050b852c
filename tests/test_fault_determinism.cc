/**
 * @file
 * Determinism of the fault-injection path: a seeded fault plan must
 * replay byte-identically — across repeated runs, with the bio pool
 * bypassed, and through the parallel fleet runner at any worker
 * count — and a throwing slice (malformed fault spec) must
 * propagate out of FleetSim::runScenario instead of terminating a
 * worker.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "blk/bio_pool.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "fleet/fleet_sim.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "stat/telemetry.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

constexpr const char *kFaults =
    "err@50ms+200ms=0.1,lat@150ms+100ms=4,stall@300ms+10ms,"
    "cliff@200ms+100ms,timeout=50ms,backoff=200us,retries=3";

struct RunResult
{
    std::string digest;
    uint64_t deviceErrors = 0;
    uint64_t retries = 0;
    uint64_t failed = 0;
};

/**
 * One degraded single-host run: every telemetry record (detail on,
 * so per-completion error/retry records are included) plus the
 * block-layer error counters, serialized into one comparable string.
 */
RunResult
runFaultyHost(bool bypass_pool)
{
    blk::BioPool::setBypass(bypass_pool);
    RunResult out;
    {
        sim::Simulator sim(2024);
        const device::SsdSpec spec = device::newGenSsd();
        auto dev = std::make_unique<device::SsdModel>(sim, spec);

        stat::RingSink ring;
        host::HostOptions opts;
        opts.controller = "iocost";
        const auto &prof =
            profile::DeviceProfiler::profileSsd(spec);
        opts.controller.iocost.model =
            core::CostModel::fromConfig(prof.model);
        opts.controller.iocost.qos.period = 10 * sim::kMsec;
        opts.telemetrySink = &ring;
        opts.telemetryDetail = true;
        opts.faults = kFaults;

        host::Host host(sim, std::move(dev), opts);
        const auto web = host.addWorkload("web", 200);
        const auto batch = host.addWorkload("batch", 100);

        workload::FioConfig rf;
        rf.iodepth = 16;
        workload::FioWorkload reads(sim, host.layer(), web, rf);
        workload::FioConfig wf;
        wf.iodepth = 8;
        wf.readFraction = 0.0;
        wf.blockSize = 256 * 1024;
        wf.offsetBase = 1ull << 40;
        workload::FioWorkload writes(sim, host.layer(), batch, wf);
        reads.start();
        writes.start();
        sim.runUntil(400 * sim::kMsec);

        for (const stat::Record &r : ring.records())
            out.digest += stat::toJsonl(r);
        out.deviceErrors = host.layer().deviceErrors();
        out.retries = host.layer().retries();
        out.failed = host.layer().failedBios();
        out.digest += "errors=" + std::to_string(out.deviceErrors) +
                      " retries=" + std::to_string(out.retries) +
                      " timeouts=" +
                      std::to_string(host.layer().timeouts()) +
                      " failed=" + std::to_string(out.failed) +
                      " completed=" +
                      std::to_string(host.layer().completed());
    }
    blk::BioPool::setBypass(false);
    return out;
}

TEST(FaultDeterminism, RunExercisesTheErrorPath)
{
    // Guard against the byte-identity tests passing vacuously on a
    // run where the fault windows never fired.
    const RunResult r = runFaultyHost(false);
    EXPECT_GT(r.deviceErrors, 0u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_NE(r.digest.find("\"error\""), std::string::npos);
}

TEST(FaultDeterminism, RepeatedRunsAreByteIdentical)
{
    const RunResult a = runFaultyHost(false);
    const RunResult b = runFaultyHost(false);
    EXPECT_EQ(a.digest, b.digest);
}

TEST(FaultDeterminism, PoolBypassDoesNotChangeOutcomes)
{
    const RunResult pooled = runFaultyHost(false);
    const RunResult bypass = runFaultyHost(true);
    EXPECT_EQ(pooled.digest, bypass.digest);
}

/** Small fleet whose slice window covers the fault windows. */
fleet::FleetScenario
faultyFleet(const std::string &size = "hosts=4 days=3 migration=1..3")
{
    fleet::FleetScenario sc = fleet::FleetScenario::parse(
        std::string(fleet::kMigrationFleetSpec) + " " + size +
        " warmup=300ms slice=250ms fetch=2M cleanup=40 seed=91 "
        "faults=lat@350ms+100ms=3,err@350ms+150ms=0.08,"
        "timeout=40ms");
    sc.telemetry = true;
    return sc;
}

fleet::FleetAggregate
runFleet(const fleet::FleetScenario &sc, unsigned jobs,
         std::vector<fleet::HostDayOutcome> *outcomes = nullptr)
{
    fleet::RunOptions opts;
    opts.jobs = jobs;
    return fleet::FleetSim::runScenario(sc, opts, outcomes);
}

void
expectOutcomesIdentical(const std::vector<fleet::HostDayOutcome> &a,
                        const std::vector<fleet::HostDayOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].fetchFailed, b[i].fetchFailed) << i;
        EXPECT_EQ(a[i].cleanupFailed, b[i].cleanupFailed) << i;
        EXPECT_EQ(a[i].fetchTime, b[i].fetchTime) << i;
        EXPECT_EQ(a[i].cleanupTime, b[i].cleanupTime) << i;
        ASSERT_EQ(a[i].records.size(), b[i].records.size()) << i;
        for (size_t j = 0; j < a[i].records.size(); ++j) {
            const stat::Record &ra = a[i].records[j];
            const stat::Record &rb = b[i].records[j];
            ASSERT_EQ(ra.time, rb.time) << i << "/" << j;
            ASSERT_EQ(ra.source, rb.source) << i << "/" << j;
            ASSERT_EQ(ra.cgroup, rb.cgroup) << i << "/" << j;
            ASSERT_EQ(ra.key, rb.key) << i << "/" << j;
            ASSERT_EQ(ra.value, rb.value) << i << "/" << j;
        }
    }
}

TEST(FaultDeterminism, FleetWithFaultsIdenticalAtAnyJobs)
{
    const fleet::FleetScenario sc = faultyFleet();
    std::vector<fleet::HostDayOutcome> seq, par;
    const auto days_seq = runFleet(sc, 1, &seq).days;
    const auto days_par = runFleet(sc, 4, &par).days;

    ASSERT_EQ(days_seq.size(), days_par.size());
    for (size_t i = 0; i < days_seq.size(); ++i) {
        EXPECT_EQ(days_seq[i].fetchFailures,
                  days_par[i].fetchFailures);
        EXPECT_EQ(days_seq[i].cleanupFailures,
                  days_par[i].cleanupFailures);
    }
    expectOutcomesIdentical(seq, par);

    // And the fault path genuinely fired somewhere in the fleet.
    uint64_t error_records = 0;
    for (const auto &o : seq) {
        for (const stat::Record &r : o.records)
            error_records += r.key == "error" ? 1 : 0;
    }
    EXPECT_GT(error_records, 0u);
}

TEST(FaultDeterminism, FleetSliceExceptionPropagates)
{
    // A malformed fault spec throws from the Host constructor inside
    // each slice. Both the sequential and the parallel runner must
    // surface it as std::invalid_argument at the call site — a
    // throwing worker thread must not std::terminate the process.
    // The spec parser rejects the plan up front, so set it past
    // the parser to reach the slices.
    fleet::FleetScenario sc = faultyFleet("hosts=2 days=2 migration=1..2");
    sc.telemetry = false;
    sc.faults = "err@oops";
    EXPECT_THROW(runFleet(sc, 1), std::invalid_argument);
    EXPECT_THROW(runFleet(sc, 4), std::invalid_argument);
}

} // namespace
