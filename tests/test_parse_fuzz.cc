/**
 * @file
 * Seeded mutation fuzz over every parser that reads user input: the
 * single-host scenario spec, the job grammar, the shared value
 * tokens, the fault plan and the what-if query.
 *
 * Each round mutates a valid seed input (insert, delete, replace,
 * duplicate or splice bytes drawn from the grammars' alphabet) and
 * feeds it to the parser. The input must either be rejected with
 * std::invalid_argument or parse to a value that survives a round
 * trip: rendered back to text and parsed again, it yields the same
 * value. Seed and iteration counts are fixed, so a failure replays
 * exactly; nothing depends on wall-clock time. The "parse" label
 * puts this test in the IOCOST_SANITIZE tree, where ASan/UBSan also
 * watch the parsers for memory errors and undefined casts.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "host/scenario_spec.hh"
#include "sim/fault.hh"
#include "sim/parse.hh"
#include "sim/rng.hh"
#include "whatif/query.hh"

namespace {

using namespace iocost;

constexpr int kRounds = 4000;

const std::string kAlphabet =
    "0123456789.eE+-_ ;:=,@\n\t\"\\{}[]abcdfgiklmnoqrstuwxyzKMGs"
    "\x01\xff";

/** One mutation of @p in, drawn from @p rng. */
std::string
mutate(const std::string &in, const std::vector<std::string> &pool,
       sim::Rng &rng)
{
    std::string s = in;
    const unsigned edits = 1 + static_cast<unsigned>(rng.below(4));
    for (unsigned e = 0; e < edits; ++e) {
        const size_t pos = s.empty() ? 0 : rng.below(s.size() + 1);
        const char c = kAlphabet[rng.below(kAlphabet.size())];
        switch (rng.below(5)) {
          case 0:
            s.insert(pos, 1, c);
            break;
          case 1:
            if (pos < s.size())
                s.erase(pos, 1 + rng.below(4));
            break;
          case 2:
            if (pos < s.size())
                s[pos] = c;
            break;
          case 3: {
            // Duplicate a slice somewhere else.
            if (s.empty())
                break;
            const size_t from = rng.below(s.size());
            const std::string slice = s.substr(from, 1 + rng.below(8));
            s.insert(pos, slice);
            break;
          }
          default: {
            // Splice in a slice of another seed.
            const std::string &other = pool[rng.below(pool.size())];
            if (other.empty())
                break;
            const size_t from = rng.below(other.size());
            s.insert(pos, other.substr(from, 1 + rng.below(16)));
            break;
          }
        }
    }
    return s;
}

/**
 * Run @p check on kRounds mutations of @p seeds. @p check parses
 * its input and asserts the round trip; std::invalid_argument
 * counts as a clean rejection. Returns how many inputs parsed.
 */
int
fuzz(uint64_t seed, const std::vector<std::string> &seeds,
     const std::function<void(const std::string &)> &check)
{
    sim::Rng rng(seed);
    int accepted = 0;
    for (int round = 0; round < kRounds; ++round) {
        const std::string input =
            mutate(seeds[rng.below(seeds.size())], seeds, rng);
        try {
            check(input);
            ++accepted;
        } catch (const std::invalid_argument &) {
        }
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "round " << round << " input \""
                          << input << "\"";
            break;
        }
    }
    return accepted;
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

TEST(ParseFuzz, ScenarioSpec)
{
    const std::vector<std::string> seeds = {
        "device=newgen;seconds=4;seed=7",
        "controller=iocost min=25 max=150;qos=rlat=5000 min=50;"
        "model=rbps=2000000000 rseqiops=400000",
        "faults=lat@1s+500ms=4,err@2s+1s=0.02,timeout=50ms",
        "pagecache=32M;dirty_ratio=30;job=b:buffered=1:bs=262144",
        "job=web:weight=200:depth=16\njob=logger:rate=500:rw=write:"
        "pattern=seq",
        "device=A;controller=kyber rlat=1000;seconds=0.25",
    };
    const int accepted = fuzz(0x5ce7a210, seeds, [](const std::string &in) {
        const host::ScenarioSpec spec = host::ScenarioSpec::parse(in);
        const std::string text = spec.canonical();
        EXPECT_EQ(host::ScenarioSpec::parse(text).canonical(), text);
        for (const host::JobSpec &job : spec.jobSpecs()) {
            EXPECT_GE(job.weight, 1u);
            EXPECT_GE(job.fio.blockSize, 1u);
        }
    });
    EXPECT_GT(accepted, kRounds / 100);
}

TEST(ParseFuzz, JobSpec)
{
    const std::vector<std::string> seeds = {
        "web:weight=200:depth=32",
        "logger:weight=50:rate=500:rw=write:pattern=seq:bs=65536",
        "db:buffered=1:bs=16384:fsync=8:span=8388608:rw=mixed",
    };
    const int accepted = fuzz(0x10b5, seeds, [](const std::string &in) {
        const host::JobSpec job = host::JobSpec::parse(in);
        // A job round-trips through the scenario grammar.
        host::ScenarioSpec spec;
        spec.jobs = {in};
        const std::string text = spec.canonical();
        EXPECT_EQ(host::ScenarioSpec::parse(text).canonical(), text);
        EXPECT_FALSE(job.name.empty());
        EXPECT_TRUE(job.weight >= 1 && job.weight <= 10000);
        EXPECT_TRUE(job.fio.ratePerSec > 0.0);
    });
    EXPECT_GT(accepted, kRounds / 100);
}

TEST(ParseFuzz, ValueTokens)
{
    const std::vector<std::string> seeds = {
        "250", "1.5s", "7us", "9ns", "3M", "1.5G", "4096", "2k",
        "1e3", "0.25ms",
    };
    int accepted = fuzz(0x7a1, seeds, [](const std::string &in) {
        const double v = sim::parseNumber(in, "x");
        EXPECT_EQ(sim::parseNumber(fmtDouble(v), "x"), v);
    });
    accepted += fuzz(0x7a2, seeds, [](const std::string &in) {
        const sim::Time t = sim::parseTime(in, "x");
        EXPECT_GE(t, 0);
        EXPECT_EQ(sim::parseTime(std::to_string(t) + "ns", "x"), t);
    });
    accepted += fuzz(0x7a3, seeds, [](const std::string &in) {
        const uint64_t b = sim::parseBytes(in, "x");
        EXPECT_EQ(sim::parseBytes(std::to_string(b), "x"), b);
    });
    accepted += fuzz(0x7a4, seeds, [](const std::string &in) {
        const uint64_t n = sim::parseCount(in, "x");
        EXPECT_EQ(sim::parseCount(std::to_string(n), "x"), n);
    });
    EXPECT_GT(accepted, kRounds / 5);
}

/** A fault plan rendered from its parsed fields. */
std::string
renderPlan(const sim::FaultPlan &plan)
{
    std::string out;
    for (const sim::FaultWindow &w : plan.windows) {
        out += std::string(sim::faultKindName(w.kind)) + "@" +
               std::to_string(w.start) + "ns+" +
               std::to_string(w.duration) + "ns";
        if (w.kind == sim::FaultKind::LatencyMult ||
            w.kind == sim::FaultKind::ErrorRate)
            out += "=" + fmtDouble(w.param);
        out += ",";
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "seed=%" PRIu64 ",retries=%u,backoff=%" PRId64
                  "ns,timeout=%" PRId64 "ns",
                  plan.seed, plan.maxRetries, plan.retryBackoffBase,
                  plan.bioTimeout);
    return out + buf;
}

TEST(ParseFuzz, FaultPlan)
{
    const std::vector<std::string> seeds = {
        "lat@2s+1s=6,err@2s+1s=0.02,cliff@2s+1s,timeout=80ms",
        "stall@20s+50ms,retries=3,backoff=200us,seed=9",
        "err@0+10ms=1",
    };
    const int accepted = fuzz(0xfa17, seeds, [](const std::string &in) {
        const std::string text = renderPlan(sim::FaultPlan::parse(in));
        EXPECT_EQ(renderPlan(sim::FaultPlan::parse(text)), text);
    });
    EXPECT_GT(accepted, kRounds / 100);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    return out + "\"";
}

/** A query rendered back to its JSON line. */
std::string
renderQuery(const whatif::Query &q)
{
    std::string out = "{";
    switch (q.kind) {
      case whatif::Query::Kind::Weight:
        out += "\"q\":\"weight\",\"cg\":" + jsonString(q.cg) +
               ",\"value\":" + std::to_string(q.weight);
        break;
      case whatif::Query::Kind::Device:
        out += "\"q\":\"device\",\"profile\":" + jsonString(q.profile);
        break;
      case whatif::Query::Kind::Fault:
        out += "\"q\":\"fault\",\"spec\":" + jsonString(q.fault);
        break;
    }
    return out + ",\"from\":\"" + std::to_string(q.from) + "ns\"}";
}

TEST(ParseFuzz, WhatifQuery)
{
    const std::vector<std::string> seeds = {
        "{\"q\":\"weight\",\"cg\":\"web\",\"value\":300,"
        "\"from\":\"1s\"}",
        "{\"q\":\"device\",\"profile\":\"G\",\"from\":\"2s\"}",
        "{\"q\":\"fault\",\"spec\":\"lat@2s+1s=6\","
        "\"from\":\"1500ms\"}",
        "{ \"q\" : \"weight\" , \"cg\":\"a\\\"b\", \"value\":\"7\" }",
    };
    const int accepted = fuzz(0x9e71, seeds, [](const std::string &in) {
        const whatif::Query q = whatif::Query::parse(in);
        const whatif::Query again =
            whatif::Query::parse(renderQuery(q));
        EXPECT_EQ(again.canonical(), q.canonical());
    });
    EXPECT_GT(accepted, kRounds / 100);
}

} // namespace
