/**
 * @file
 * Byte pins for whatif::Scenario identity.
 *
 * The canonical string and its FNV-1a hash key the what-if result
 * cache and appear in every whatif_diff document, so a refactor of
 * the scenario grammar must not move a single byte of either. These
 * literals were recorded from the implementation that predates the
 * shared host::ScenarioSpec and must keep matching it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "whatif/scenario.hh"

namespace {

using namespace iocost;

struct Pin
{
    const char *spec;
    const char *canonical;
    uint64_t hash;
};

const Pin kPins[] = {
    // Every key at its default.
    {"",
     "device=newgen;controller=iocost;model=;qos=;faults=;"
     "seconds=10;seed=42;job=web:weight=200:depth=32;"
     "job=batch:weight=100:depth=32;"
     "marks=0,2500000000,5000000000,7500000000",
     0x2feb979822709ff0ull},
    // Explicit jobs using every direct-IO key.
    {"device=oldgen;seconds=4;seed=7;job=web:weight=200:depth=16;"
     "job=batch:weight=100:depth=16;"
     "job=logger:weight=50:rate=500:rw=write:pattern=seq:bs=65536",
     "device=oldgen;controller=iocost;model=;qos=;faults=;"
     "seconds=4;seed=7;job=web:weight=200:depth=16;"
     "job=batch:weight=100:depth=16;"
     "job=logger:weight=50:rate=500:rw=write:pattern=seq:bs=65536;"
     "marks=0,1000000000,2000000000,3000000000",
     0x29c1d38d0857c250ull},
    // Controller settings plus kernel-format model and qos lines.
    {"device=newgen;controller=iocost min=25 max=150;"
     "model=rbps=2000000000 rseqiops=400000 rrandiops=300000 "
     "wbps=1500000000 wseqiops=300000 wrandiops=200000;"
     "qos=rpct=95 rlat=5000 wpct=95 wlat=10000 min=50 max=125;"
     "seconds=2",
     "device=newgen;controller=iocost min=25 max=150;"
     "model=rbps=2000000000 rseqiops=400000 rrandiops=300000 "
     "wbps=1500000000 wseqiops=300000 wrandiops=200000;"
     "qos=rpct=95 rlat=5000 wpct=95 wlat=10000 min=50 max=125;"
     "faults=;seconds=2;seed=42;job=web:weight=200:depth=32;"
     "job=batch:weight=100:depth=32;"
     "marks=0,500000000,1000000000,1500000000",
     0xd0b7bb26ca8494feull},
    // A fault plan on a non-iocost controller.
    {"device=hdd;controller=kyber rlat=1000;"
     "faults=lat@1s+500ms=4,err@2s+1s=0.02,timeout=50ms;"
     "seconds=3;seed=9",
     "device=hdd;controller=kyber rlat=1000;model=;qos=;"
     "faults=lat@1s+500ms=4,err@2s+1s=0.02,timeout=50ms;"
     "seconds=3;seed=9;job=web:weight=200:depth=32;"
     "job=batch:weight=100:depth=32;"
     "marks=0,750000000,1500000000,2250000000",
     0x76aa3be77132b1d4ull},
    // Page cache, dirty wall and a buffered job.
    {"device=newgen;seconds=0.4;seed=11;pagecache=32M;"
     "dirty_ratio=30;job=web:weight=200:depth=16;"
     "job=batch:weight=100:buffered=1:bs=262144:span=67108864",
     "device=newgen;controller=iocost;model=;qos=;faults=;"
     "seconds=0.40000000000000002;seed=11;pagecache=33554432;"
     "dirty_ratio=30;job=web:weight=200:depth=16;"
     "job=batch:weight=100:buffered=1:bs=262144:span=67108864;"
     "marks=0,100000000,200000000,300000000",
     0x1b171e15e37eebacull},
    // Custom marks in mixed units, unsorted.
    {"device=enterprise;seconds=2;marks=250ms,1s,1500000us,0.5s",
     "device=enterprise;controller=iocost;model=;qos=;faults=;"
     "seconds=2;seed=42;job=web:weight=200:depth=32;"
     "job=batch:weight=100:depth=32;"
     "marks=0,250000000,500000000,1000000000,1500000000",
     0x28a0dd80bc7007e5ull},
};

TEST(WhatifScenarioPins, CanonicalAndHashBytes)
{
    for (const Pin &pin : kPins) {
        const whatif::Scenario sc = whatif::Scenario::parse(pin.spec);
        EXPECT_EQ(sc.canonical(), pin.canonical) << pin.spec;
        EXPECT_EQ(sc.hash(), pin.hash) << pin.spec;
    }
}

/** A scenario assembled field by field pins to the same bytes as
 *  its parsed twin once normalized. */
TEST(WhatifScenarioPins, FieldByFieldMatchesParse)
{
    whatif::Scenario sc;
    sc.device = "newgen";
    sc.seconds = 0.4;
    sc.seed = 11;
    sc.pagecacheBytes = 32ull << 20;
    sc.dirtyRatioPct = 30;
    sc.jobs = {"web:weight=200:depth=16",
               "batch:weight=100:buffered=1:bs=262144:"
               "span=67108864"};
    sc.normalize();
    EXPECT_EQ(sc.canonical(), kPins[4].canonical);
    EXPECT_EQ(sc.hash(), kPins[4].hash);
}

} // namespace
