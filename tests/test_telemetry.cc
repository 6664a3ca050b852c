/**
 * @file
 * Tests for the telemetry bus: sink behaviour, JSONL encoding, the
 * unified window API, the iocost period publisher, and determinism
 * of fleet telemetry capture across worker counts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/iocost.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "fleet/fleet_sim.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "stat/histogram.hh"
#include "stat/meter.hh"
#include "stat/telemetry.hh"
#include "stat/time_series.hh"
#include "workload/fio_workload.hh"

namespace {

using namespace iocost;

TEST(TelemetrySink, NullSinkDisablesEmission)
{
    stat::Telemetry tel;
    EXPECT_FALSE(tel.enabled());

    stat::NullSink null_sink;
    tel.setSink(&null_sink);
    // A disabled sink is dropped entirely so the emit fast path
    // stays one pointer test.
    EXPECT_FALSE(tel.enabled());
    tel.emit(0, "x", stat::kNoCgroup, "k", 1.0); // must not crash

    stat::RingSink ring;
    tel.setSink(&ring);
    EXPECT_TRUE(tel.enabled());
    tel.emit(5, "x", 3, "k", 2.5);
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.records().front().time, 5);
    EXPECT_EQ(ring.records().front().cgroup, 3u);
    EXPECT_DOUBLE_EQ(ring.records().front().value, 2.5);

    tel.setSink(nullptr);
    EXPECT_FALSE(tel.enabled());
}

TEST(TelemetrySink, RingCapacityEvictsOldest)
{
    stat::RingSink ring(3);
    for (int i = 0; i < 5; ++i) {
        ring.emit(stat::Record{i, "s", stat::kNoCgroup, "k",
                               static_cast<double>(i)});
    }
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.records().front().time, 2);
    EXPECT_EQ(ring.records().back().time, 4);
}

TEST(TelemetrySink, JsonlEncodingEscapesAndRoundsTrips)
{
    stat::Record r;
    r.time = 1234567;
    r.source = "blk";
    r.cgroup = stat::kNoCgroup;
    r.key = "weird \"key\"\n";
    r.value = 0.5;
    const std::string line = stat::toJsonl(r);
    EXPECT_EQ(line,
              "{\"t\":1234567,\"src\":\"blk\",\"cg\":-1,"
              "\"key\":\"weird \\\"key\\\"\\n\",\"val\":0.5}\n");

    r.cgroup = 7;
    EXPECT_NE(stat::toJsonlFields(r).find("\"cg\":7"),
              std::string::npos);
}

TEST(TelemetrySink, SnapshotEmissionSkipsEmptyWindows)
{
    stat::RingSink ring;
    stat::Telemetry tel;
    tel.setSink(&ring);

    stat::WindowSnapshot empty;
    tel.emitSnapshot(10, "s", stat::kNoCgroup, "lat", empty);
    // Only the _count record for an empty window.
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.records().front().key, "lat_count");

    ring.clear();
    stat::WindowSnapshot full;
    full.count = 4;
    full.perSecond = 8.0;
    full.mean = 2.0;
    full.p50 = 2;
    full.p99 = 3;
    tel.emitSnapshot(10, "s", stat::kNoCgroup, "lat", full);
    EXPECT_EQ(ring.size(), 5u);
}

TEST(WindowApi, HistogramResetStartsNewWindow)
{
    stat::Histogram h;
    h.record(1000);
    h.record(3000);
    const auto s = h.snapshot(2 * sim::kSec);
    EXPECT_EQ(s.count, 2u);
    EXPECT_DOUBLE_EQ(s.perSecond, 1.0);
    EXPECT_GT(s.p99, 0);

    h.reset(2 * sim::kSec);
    const auto s2 = h.snapshot(3 * sim::kSec);
    EXPECT_EQ(s2.count, 0u);
    EXPECT_EQ(s2.windowStart, 2 * sim::kSec);
}

TEST(WindowApi, RateMeterSnapshotMatchesPerSecond)
{
    stat::RateMeter m;
    m.reset(1 * sim::kSec);
    m.add(10);
    m.add(10);
    const auto s = m.snapshot(2 * sim::kSec);
    EXPECT_EQ(s.count, 20u); // RateMeter counts accumulated units

    EXPECT_DOUBLE_EQ(s.perSecond, m.perSecond(2 * sim::kSec));
}

TEST(WindowApi, TimeSeriesWindowedSnapshotKeepsPoints)
{
    stat::TimeSeries ts;
    ts.record(1 * sim::kSec, 10.0);
    ts.record(2 * sim::kSec, 20.0);
    ts.reset(2 * sim::kSec);
    ts.record(3 * sim::kSec, 30.0);
    const auto s = ts.snapshot(4 * sim::kSec);
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.mean, 30.0);
    // Figure plotting depends on the full series surviving resets.
    EXPECT_EQ(ts.size(), 3u);
}

/** A short saturated iocost host run with a ring sink attached. */
struct IocostRun
{
    std::unique_ptr<host::Host> host;
    std::unique_ptr<workload::FioWorkload> job;
    std::vector<stat::Record> records;
};

IocostRun
iocostRun(sim::Simulator &sim, stat::RingSink &ring)
{
    const device::SsdSpec spec = device::newGenSsd();
    host::HostOptions opts;
    opts.controller = "iocost";
    opts.controller.iocost.model = core::CostModel::fromConfig(
        profile::DeviceProfiler::profileSsd(spec).model);
    opts.controller.iocost.qos.period = 10 * sim::kMsec;
    opts.controller.iocost.qos.vrateMin = 0.5;
    opts.controller.iocost.qos.vrateMax = 1.5;
    opts.telemetrySink = &ring;

    IocostRun run;
    run.host = std::make_unique<host::Host>(
        sim, std::make_unique<device::SsdModel>(sim, spec), opts);

    const auto cg = run.host->addWorkload("stress", 100);
    workload::FioConfig cfg;
    cfg.arrival = workload::Arrival::Saturating;
    cfg.iodepth = 64;
    run.job = std::make_unique<workload::FioWorkload>(
        sim, run.host->layer(), cg, cfg);
    run.job->start();
    sim.runUntil(500 * sim::kMsec);
    run.job->stop();

    run.records.assign(ring.records().begin(),
                       ring.records().end());
    return run;
}

TEST(IocostTelemetry, PeriodRecordsMonotonicAndMatchVrateSeries)
{
    sim::Simulator sim(7);
    stat::RingSink ring;
    const IocostRun run = iocostRun(sim, ring);
    const auto &records = run.records;

    std::vector<stat::Record> vrates;
    sim::Time prev = -1;
    for (const auto &r : records) {
        if (r.source == "iocost" && r.key == "vrate_pct")
            vrates.push_back(r);
        // The stream as a whole is emitted in simulation order.
        EXPECT_GE(r.time, prev);
        prev = r.time;
    }
    ASSERT_GT(vrates.size(), 10u);

    // Period records must agree exactly with the controller's own
    // vrate series (same planning pass, same values).
    const auto &pts = run.host->iocost()->vrateSeries().points();
    ASSERT_EQ(pts.size(), vrates.size());
    for (size_t i = 0; i < vrates.size(); ++i) {
        EXPECT_EQ(vrates[i].time, pts[i].when);
        EXPECT_DOUBLE_EQ(vrates[i].value, pts[i].value);
    }

    // Period boundaries are one planning period apart once running.
    for (size_t i = 1; i < vrates.size(); ++i)
        EXPECT_EQ(vrates[i].time - vrates[i - 1].time,
                  10 * sim::kMsec);

    // Every period block carries the per-cgroup gauges.
    bool saw_usage = false, saw_hweight = false, saw_debt = false;
    for (const auto &r : records) {
        if (r.source != "iocost" || r.cgroup == stat::kNoCgroup)
            continue;
        saw_usage |= r.key == "usage_pct";
        saw_hweight |= r.key == "hweight_inuse_pct";
        saw_debt |= r.key == "debt_us";
    }
    EXPECT_TRUE(saw_usage);
    EXPECT_TRUE(saw_hweight);
    EXPECT_TRUE(saw_debt);
}

TEST(IocostTelemetry, DetailGatesPerCompletionRecords)
{
    sim::Simulator sim(8);
    stat::RingSink ring;
    const IocostRun run = iocostRun(sim, ring);
    for (const auto &r : run.records)
        EXPECT_NE(r.source, "blk");
}

/** Serialize one fleet outcome grid as prefixed JSONL. */
std::string
fleetJsonl(const fleet::FleetScenario &sc, unsigned jobs)
{
    std::vector<fleet::HostDayOutcome> outcomes;
    fleet::RunOptions opts;
    opts.jobs = jobs;
    fleet::FleetSim::runScenario(sc, opts, &outcomes);
    std::string out;
    for (unsigned day = 0; day < sc.days; ++day) {
        for (unsigned h = 0; h < sc.hosts; ++h) {
            const auto &o =
                outcomes[static_cast<uint64_t>(day) * sc.hosts + h];
            for (const auto &r : o.records) {
                out += "{\"day\":" + std::to_string(day) +
                       ",\"host\":" + std::to_string(h) + "," +
                       stat::toJsonlFields(r) + "}\n";
            }
        }
    }
    return out;
}

TEST(FleetTelemetry, JsonlByteIdenticalAcrossWorkerCounts)
{
    fleet::FleetScenario sc = fleet::FleetScenario::parse(
        std::string(fleet::kMigrationFleetSpec) +
        " hosts=4 days=3 migration=1..2 warmup=300ms slice=250ms "
        "fetch=2M cleanup=40");
    sc.telemetry = true;

    const std::string seq = fleetJsonl(sc, 1);
    const std::string par = fleetJsonl(sc, 4);
    EXPECT_FALSE(seq.empty());
    EXPECT_EQ(seq, par);
    // Both controller generations appear across the migration.
    EXPECT_NE(seq.find("\"src\":\"iolatency\""), std::string::npos);
    EXPECT_NE(seq.find("\"src\":\"iocost\""), std::string::npos);
}

TEST(FleetTelemetry, OffByDefaultCapturesNothing)
{
    const fleet::FleetScenario sc = fleet::FleetScenario::parse(
        std::string(fleet::kMigrationFleetSpec) +
        " hosts=1 days=1 warmup=100ms slice=100ms fetch=1M "
        "cleanup=10");

    std::vector<fleet::HostDayOutcome> outcomes;
    fleet::FleetSim::runScenario(sc, {}, &outcomes);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].records.empty());
}

} // namespace
