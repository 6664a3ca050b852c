/**
 * @file
 * host::ScenarioSpec, the job grammar and the shared value parser.
 *
 * One spec builds every single-host front end's hosts, so these
 * tests pin the rules all of them share: which devices exist, how
 * the iocost model and QoS are defaulted, what the job grammar
 * accepts, and which number tokens are rejected.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/config_parse.hh"
#include "host/config.hh"
#include "host/device_factory.hh"
#include "host/scenario_spec.hh"
#include "sim/parse.hh"

namespace {

using namespace iocost;

const char kModelKeys[] =
    "rbps=2000000000 rseqiops=400000 rrandiops=300000 "
    "wbps=1500000000 wseqiops=300000 wrandiops=200000";

sim::Time
readCost(const core::CostModel &m)
{
    return m.cost(blk::Op::Read, false, 4096);
}

/** The fleet SSDs A..H are single-host devices too (model= skips
 *  the profiling run, which only the defaulting tests need). */
TEST(ScenarioSpec, BuildsEveryFleetSsd)
{
    for (char c = 'A'; c <= 'H'; ++c) {
        host::ScenarioSpec spec;
        spec.device = std::string(1, c);
        spec.model = kModelKeys;
        spec.seconds = 0.01;
        spec.normalize();
        sim::Simulator sim(1);
        host::ScenarioHost built = spec.buildHost(sim);
        sim.runUntil(spec.duration());
        EXPECT_GT(built.iops(0), 0.0) << spec.device;
    }
    host::ScenarioSpec bad;
    bad.device = "Z";
    bad.normalize();
    sim::Simulator sim(1);
    EXPECT_THROW(bad.buildHost(sim), std::invalid_argument);
}

/** An iocost line's own model and qos keys win over the device
 *  profile; without them the profile and a [50%, 100%] vrate range
 *  fill in. The sweep path applies the identical rule. */
TEST(ScenarioSpec, IocostLineKeysWinOverProfile)
{
    core::LinearModelConfig profile;
    {
        sim::Simulator probe(1);
        (void)host::makeNamedDevice("newgen", probe, &profile);
    }
    const core::LinearModelConfig own =
        *core::parseModelLine(kModelKeys);

    host::ScenarioSpec bare;
    bare.normalize();
    host::ScenarioSpec keyed = bare;
    keyed.controller = std::string("iocost ") + kModelKeys +
                       " min=25 max=90 period=20000";

    sim::Simulator s1(1), s2(1);
    const host::ScenarioHost b = bare.buildHost(s1);
    const host::ScenarioHost k = keyed.buildHost(s2);
    EXPECT_EQ(readCost(b.controller.iocost.model),
              readCost(core::CostModel::fromConfig(profile)));
    EXPECT_DOUBLE_EQ(b.controller.iocost.qos.vrateMin, 0.5);
    EXPECT_DOUBLE_EQ(b.controller.iocost.qos.vrateMax, 1.0);
    EXPECT_EQ(readCost(k.controller.iocost.model),
              readCost(core::CostModel::fromConfig(own)));
    EXPECT_DOUBLE_EQ(k.controller.iocost.qos.vrateMin, 0.25);
    EXPECT_DOUBLE_EQ(k.controller.iocost.qos.vrateMax, 0.90);
    EXPECT_EQ(k.controller.iocost.qos.period, 20 * sim::kMsec);

    // The sweep's tweakSpec lands on the same controllers.
    host::SweepOptions opts =
        keyed.sweepOptions({bare.controller, keyed.controller});
    const std::pair<std::string, const host::ScenarioHost *> built[] =
        {{bare.controller, &b}, {keyed.controller, &k}};
    for (const auto &[line, h] : built) {
        auto spec = *controllers::parseControllerSpec(line);
        opts.tweakSpec(line, spec);
        EXPECT_EQ(readCost(spec.iocost.model),
                  readCost(h->controller.iocost.model))
            << line;
        EXPECT_DOUBLE_EQ(spec.iocost.qos.vrateMin,
                         h->controller.iocost.qos.vrateMin);
        EXPECT_DOUBLE_EQ(spec.iocost.qos.vrateMax,
                         h->controller.iocost.qos.vrateMax);
    }
}

/** qos= replaces the whole QoS block, the line's keys included;
 *  model= replaces the profile but not the line's own model. */
TEST(ScenarioSpec, QosAndModelLines)
{
    const host::ScenarioSpec spec = host::ScenarioSpec::parse(
        "controller=iocost min=25 max=90;qos=rlat=7000 min=40 "
        "max=120;model=" +
        std::string(kModelKeys) + ";seconds=0.01");
    sim::Simulator sim(1);
    const host::ScenarioHost built = spec.buildHost(sim);
    EXPECT_DOUBLE_EQ(built.controller.iocost.qos.vrateMin, 0.40);
    EXPECT_DOUBLE_EQ(built.controller.iocost.qos.vrateMax, 1.20);
    EXPECT_EQ(built.controller.iocost.qos.readLatTarget,
              7 * sim::kMsec);
    EXPECT_EQ(readCost(built.controller.iocost.model),
              readCost(core::CostModel::fromConfig(
                  *core::parseModelLine(kModelKeys))));
}

/** The fleet passes its own QoS default through the same rule. */
TEST(ScenarioSpec, FleetDefaultsThroughTheSameRule)
{
    core::QosParams fleet_qos;
    fleet_qos.period = 10 * sim::kMsec;
    fleet_qos.vrateMax = 2.0;
    const core::LinearModelConfig model;

    auto bare = *controllers::parseControllerSpec("iocost");
    host::applyIocostDefaults(bare, "iocost", model, fleet_qos);
    EXPECT_EQ(bare.iocost.qos.period, 10 * sim::kMsec);
    EXPECT_DOUBLE_EQ(bare.iocost.qos.vrateMax, 2.0);

    auto period =
        *controllers::parseControllerSpec("iocost period=5000");
    host::applyIocostDefaults(period, "iocost period=5000", model,
                              fleet_qos);
    EXPECT_EQ(period.iocost.qos.period, 5 * sim::kMsec);
    EXPECT_DOUBLE_EQ(period.iocost.qos.vrateMax, 2.0);

    auto other = *controllers::parseControllerSpec("iolatency");
    host::applyIocostDefaults(other, "iolatency", model, fleet_qos);
    EXPECT_DOUBLE_EQ(other.iocost.qos.vrateMax,
                     core::QosParams{}.vrateMax);
}

TEST(ScenarioSpec, DefaultsAndLayout)
{
    const host::ScenarioSpec spec = host::ScenarioSpec::parse("");
    ASSERT_EQ(spec.jobs.size(), 2u);
    const auto jobs = spec.jobSpecs();
    EXPECT_EQ(jobs[0].name, "web");
    EXPECT_EQ(jobs[0].weight, 200u);
    EXPECT_EQ(jobs[1].name, "batch");
    EXPECT_EQ(jobs[1].fio.offsetBase, 1ull << 40);
    EXPECT_EQ(spec.canonical(),
              "device=newgen;controller=iocost;model=;qos=;faults=;"
              "seconds=10;seed=42;job=web:weight=200:depth=32;"
              "job=batch:weight=100:depth=32");
}

/** Buffered jobs need a cache: the CLI rule sizes one, a spec
 *  without it fails to build. */
TEST(ScenarioSpec, BufferedJobsAndThePageCache)
{
    host::ScenarioSpec spec =
        host::ScenarioSpec::parse("seconds=0.05;job=w:buffered=1");
    sim::Simulator s1(1);
    EXPECT_THROW(spec.buildHost(s1), std::invalid_argument);
    spec.defaultPageCache();
    EXPECT_EQ(spec.pagecacheBytes, 512ull << 20);
    sim::Simulator s2(1);
    const host::ScenarioHost built = spec.buildHost(s2);
    EXPECT_TRUE(built.host->hasPageCache());
    EXPECT_THROW(spec.sweepOptions({"iocost", "kyber"}),
                 std::invalid_argument);
}

TEST(ScenarioSpec, CanonicalRoundTrip)
{
    const host::ScenarioSpec spec = host::ScenarioSpec::parse(
        " device = A ;controller=kyber rlat=1000\nseed=7;"
        "seconds=0.25;pagecache=1.5G;dirty_ratio=12.5;"
        "faults=lat@1s+2s=3;job=x:bs=8192:rw=mixed");
    const host::ScenarioSpec again =
        host::ScenarioSpec::parse(spec.canonical());
    EXPECT_EQ(again.canonical(), spec.canonical());
    EXPECT_EQ(spec.device, "A");
    EXPECT_EQ(spec.pagecacheBytes, 3ull << 29);
}

TEST(ScenarioSpec, RejectsBadEntries)
{
    for (const char *text : {
             "bogus=1",
             "noequals",
             "seconds=0",
             "seconds=-1",
             "seconds=1e300",
             "seconds=abc",
             "seconds=1abc",
             "seed=-1",
             "seed=1.5",
             "dirty_ratio=101",
             "pagecache=nan",
             "controller=not-a-mechanism",
             "model=rbps=-1",
             "qos=rlat=x",
             "faults=lat@1s",
             "job=",
             "job=:weight=1",
         }) {
        EXPECT_THROW(host::ScenarioSpec::parse(text),
                     std::invalid_argument)
            << text;
    }
}

TEST(ScenarioSpec, FlagKeys)
{
    EXPECT_EQ(host::ScenarioSpec::flagKey("--dirty-ratio"),
              "dirty_ratio");
    EXPECT_EQ(host::ScenarioSpec::flagKey("--job"), "job");
    EXPECT_EQ(host::ScenarioSpec::flagKey("--sweep"), "");
    EXPECT_EQ(host::ScenarioSpec::flagKey("device"), "");
}

TEST(JobGrammar, DocumentedValues)
{
    const host::JobSpec job = host::JobSpec::parse(
        "logger:weight=50:depth=4:bs=65536:rw=write:pattern=seq:"
        "rate=500:buffered=1:fsync=8:span=1048576");
    EXPECT_EQ(job.name, "logger");
    EXPECT_EQ(job.weight, 50u);
    EXPECT_EQ(job.fio.iodepth, 4u);
    EXPECT_EQ(job.fio.blockSize, 65536u);
    EXPECT_DOUBLE_EQ(job.fio.readFraction, 0.0);
    EXPECT_DOUBLE_EQ(job.fio.randomFraction, 0.0);
    EXPECT_EQ(job.fio.arrival, workload::Arrival::Rate);
    EXPECT_DOUBLE_EQ(job.fio.ratePerSec, 500.0);
    EXPECT_TRUE(job.buffered);
    EXPECT_EQ(job.fsyncEvery, 8u);
    EXPECT_EQ(job.spanBytes, 1048576u);

    EXPECT_DOUBLE_EQ(host::JobSpec::parse("a:rw=read").fio.readFraction,
                     1.0);
    EXPECT_DOUBLE_EQ(
        host::JobSpec::parse("a:rw=mixed").fio.readFraction, 0.5);
    EXPECT_DOUBLE_EQ(
        host::JobSpec::parse("a:pattern=rand").fio.randomFraction,
        1.0);
}

/** Values outside the documented sets fail instead of silently
 *  falling back to a default mix or pattern. */
TEST(JobGrammar, RejectsUndocumentedValues)
{
    for (const char *text : {
             "a:rw=raed",
             "a:rw=",
             "a:pattern=sequential",
             "a:pattern=random",
             "a:buffered=2",
             "a:buffered=yes",
             "a:weight=0",
             "a:weight=10001",
             "a:weight=x",
             "a:weight=-1",
             "a:weight=1.5",
             "a:depth=32abc",
             "a:depth=0",
             "a:depth=0:buffered=1",
             "a:bs=0",
             "a:bs=4294967296",
             "a:rate=0",
             "a:rate=nan",
             "a:rate=inf",
             "a:span=64M",
             "a:fsync=-3",
             "a:nokey",
             "a:colour=red",
             "",
         }) {
        EXPECT_THROW(host::JobSpec::parse(text), std::invalid_argument)
            << text;
    }
}

/** depth=0 is rejected for closed-loop jobs (above) but a rate job
 *  ignores depth, so it takes 0 in either key order. */
TEST(JobGrammar, DepthZeroOnlyForRateJobs)
{
    EXPECT_EQ(host::JobSpec::parse("a:depth=0:rate=100").fio.iodepth,
              0u);
    EXPECT_EQ(host::JobSpec::parse("a:rate=100:depth=0").fio.iodepth,
              0u);
}

TEST(JobGrammar, ErrorsNameTheValue)
{
    try {
        (void)host::JobSpec::parse("web:weight=x", "--job");
        FAIL() << "accepted weight=x";
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find("--job: weight"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ValueParser, AcceptsEveryDocumentedForm)
{
    EXPECT_DOUBLE_EQ(sim::parseNumber("2.5", "x"), 2.5);
    EXPECT_DOUBLE_EQ(sim::parseNumber("1e3", "x"), 1000.0);
    EXPECT_EQ(sim::parseCount("18446744073709551615", "x"),
              UINT64_MAX);
    EXPECT_EQ(sim::parseCount("10000", "x", 10000), 10000u);
    EXPECT_EQ(sim::parseTime("250", "x"), 250 * sim::kMsec);
    EXPECT_EQ(sim::parseTime("1.5s", "x"), 1500 * sim::kMsec);
    EXPECT_EQ(sim::parseTime("7us", "x"), 7 * sim::kUsec);
    EXPECT_EQ(sim::parseTime("9ns", "x"), 9);
    EXPECT_EQ(sim::parseBytes("4096", "x"), 4096u);
    EXPECT_EQ(sim::parseBytes("2k", "x"), 2048u);
    EXPECT_EQ(sim::parseBytes("3M", "x"), 3ull << 20);
    EXPECT_EQ(sim::parseBytes("1.5G", "x"), 3ull << 29);
}

/** NaN, infinities, values past the destination type and trailing
 *  junk are rejected by every token kind. */
TEST(ValueParser, RejectsNonFiniteAndOutOfRange)
{
    for (const char *text : {"nan", "NaN", "inf", "-inf", "infinity",
                             "1e400", "", "abc", "5x", "1.0.0"}) {
        EXPECT_THROW(sim::parseNumber(text, "x"),
                     std::invalid_argument)
            << text;
    }
    for (const char *text : {"nan", "inf", "1e30G", "1e10s", "-1ms",
                             "5parsecs", "1e400", "ms"}) {
        EXPECT_THROW(sim::parseTime(text, "x"), std::invalid_argument)
            << text;
    }
    for (const char *text : {"nan", "nanG", "inf", "1e30G", "2e19",
                             "-1", "2Gb", "5X", "G"}) {
        EXPECT_THROW(sim::parseBytes(text, "x"),
                     std::invalid_argument)
            << text;
        EXPECT_FALSE(host::parseSize(text).has_value()) << text;
    }
    for (const char *text : {"18446744073709551616", "-1", "+1", "1e3",
                             "1.0", " 1", "1 ", "0x10"}) {
        EXPECT_THROW(sim::parseCount(text, "x"), std::invalid_argument)
            << text;
    }
    EXPECT_THROW(sim::parseCount("10001", "x", 10000),
                 std::invalid_argument);
    EXPECT_THROW(sim::parseCount("2", "x", 1), std::invalid_argument);
}

TEST(ValueParser, ErrorsNameTheValue)
{
    try {
        (void)sim::parseNumber("abc", "--seconds");
        FAIL() << "accepted abc";
    } catch (const std::invalid_argument &err) {
        EXPECT_EQ(std::string(err.what()),
                  "--seconds: unparsable number \"abc\"");
    }
}

} // namespace
