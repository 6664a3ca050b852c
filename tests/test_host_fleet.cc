/**
 * @file
 * Tests for the Host assembly helper and the fleet Monte-Carlo:
 * hierarchy shape, controller installation, migration stagger, and
 * host-day determinism + directional outcomes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "fleet/fleet_sim.hh"
#include "host/host.hh"

namespace {

using namespace iocost;

TEST(Host, BuildsMetaHierarchy)
{
    sim::Simulator sim(71);
    host::HostOptions opts;
    opts.controller = "none";
    host::Host host(sim,
                    std::make_unique<device::SsdModel>(
                        sim, device::newGenSsd()),
                    opts);
    auto &tree = host.tree();
    EXPECT_EQ(tree.path(host.system()), "/system.slice");
    EXPECT_EQ(tree.path(host.hostCritical()),
              "/hostcritical.slice");
    EXPECT_EQ(tree.path(host.workload()), "/workload.slice");
    EXPECT_EQ(tree.weight(host.workload()), 500u);
    EXPECT_EQ(tree.weight(host.hostCritical()), 100u);
    EXPECT_EQ(tree.weight(host.system()), 50u);

    const auto web = host.addWorkload("web", 123);
    EXPECT_EQ(tree.path(web), "/workload.slice/web");
    EXPECT_EQ(tree.weight(web), 123u);
    const auto svc = host.addSystemService("chef");
    EXPECT_EQ(tree.path(svc), "/system.slice/chef");
}

TEST(Host, InstallsRequestedController)
{
    sim::Simulator sim(72);
    for (const std::string name : {"none", "bfq", "iocost"}) {
        host::HostOptions opts;
        opts.controller = name;
        host::Host host(sim,
                        std::make_unique<device::SsdModel>(
                            sim, device::newGenSsd()),
                        opts);
        ASSERT_NE(host.layer().controller(), nullptr);
        EXPECT_EQ(host.layer().controller()->caps().name, name);
        EXPECT_EQ(host.iocost() != nullptr, name == "iocost");
    }
}

TEST(Host, MemoryManagerOptional)
{
    sim::Simulator sim(73);
    host::HostOptions opts;
    opts.controller = "none";
    host::Host no_mm(sim,
                     std::make_unique<device::SsdModel>(
                         sim, device::newGenSsd()),
                     opts);
    EXPECT_FALSE(no_mm.hasMemory());

    opts.enableMemory = true;
    host::Host with_mm(sim,
                       std::make_unique<device::SsdModel>(
                           sim, device::newGenSsd()),
                       opts);
    EXPECT_TRUE(with_mm.hasMemory());
    EXPECT_EQ(with_mm.mm().totalResident(), 0u);
}

TEST(FleetSim, MigrationDayStaggersAcrossWindow)
{
    const fleet::FleetScenario sc =
        fleet::FleetScenario::parse("hosts=10 days=18 migration=4..14");
    EXPECT_EQ(sc.migrationDay(0), 4u);
    EXPECT_EQ(sc.migrationDay(9), 13u);
    for (unsigned h = 1; h < 10; ++h)
        EXPECT_GE(sc.migrationDay(h), sc.migrationDay(h - 1));
}

/** Host-days of the migration figures' fleet on @p kind's SSD
 *  (0 = old-gen, 1 = new-gen). */
fleet::HostDayOutcome
hostDay(const std::string &controller, int kind, uint64_t seed)
{
    static const fleet::FleetScenario sc =
        fleet::FleetScenario::parse(fleet::kMigrationFleetSpec);
    return fleet::FleetSim::runHostDay(
        sc, kind == 0 ? device::oldGenSsd() : device::newGenSsd(),
        fleet::WorkloadKind::Mixed, controller, seed);
}

TEST(FleetSim, HostDayIsDeterministic)
{
    const auto a = hostDay("iocost", 0, 999);
    const auto b = hostDay("iocost", 0, 999);
    EXPECT_EQ(a.fetchTime, b.fetchTime);
    EXPECT_EQ(a.cleanupTime, b.cleanupTime);
}

TEST(FleetSim, IoCostProtectsAgentsBetterThanIoLatency)
{
    // Aggregate over a handful of host-days: iocost's cleanup times
    // must be far better; fetch times must meet the deadline.
    const double slice_s = sim::toSeconds(fleet::FleetScenario{}.slice);
    double iolat_cleanup = 0, iocost_cleanup = 0;
    int iocost_fetch_fail = 0;
    const int n = 6;
    for (int i = 0; i < n; ++i) {
        const auto a = hostDay("iolatency", i % 2, 13 + i * 71);
        const auto b = hostDay("iocost", i % 2, 13 + i * 71);
        iolat_cleanup += a.cleanupTime == sim::kTimeNever
                             ? slice_s
                             : sim::toSeconds(a.cleanupTime);
        iocost_cleanup += sim::toSeconds(b.cleanupTime);
        iocost_fetch_fail += b.fetchFailed ? 1 : 0;
    }
    EXPECT_LT(iocost_cleanup * 3, iolat_cleanup);
    EXPECT_EQ(iocost_fetch_fail, 0);
}

} // namespace
