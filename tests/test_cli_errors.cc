/**
 * @file
 * Command-line error handling of iocost_sim and iocost_mon.
 *
 * A bad value on the command line must end the tool with exit
 * status 1 and a message naming the flag, never with an uncaught
 * exception (abort, status 134) or a silently substituted default.
 * The tool paths come from the build (IOCOST_SIM_BIN, IOCOST_MON_BIN).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct Outcome
{
    int status = -1; ///< exit status, or -1 when killed by a signal
    std::string output;
};

/** Run @p args under /bin/sh, capturing stdout and stderr. */
Outcome
run(const std::string &args)
{
    Outcome out;
    FILE *p = popen((args + " 2>&1").c_str(), "r");
    if (!p)
        return out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.output.append(buf, n);
    const int raw = pclose(p);
    if (WIFEXITED(raw))
        out.status = WEXITSTATUS(raw);
    return out;
}

/** Exit 1 with a message that names @p flag. */
void
expectRejected(const char *tool, const std::string &args,
               const std::string &flag)
{
    const Outcome o = run(std::string(tool) + " " + args);
    EXPECT_EQ(o.status, 1) << args << "\n" << o.output;
    EXPECT_NE(o.output.find("fatal: "), std::string::npos)
        << args << "\n" << o.output;
    EXPECT_NE(o.output.find(flag), std::string::npos)
        << args << "\n" << o.output;
}

TEST(CliErrors, SimRejectsBadNumbers)
{
    const char *sim = IOCOST_SIM_BIN;
    expectRejected(sim, "--seconds abc", "--seconds");
    expectRejected(sim, "--seconds 1x", "--seconds");
    expectRejected(sim, "--seed -3", "--seed");
    expectRejected(sim, "--seed 12abc", "--seed");
    expectRejected(sim, "--dirty-ratio nan", "--dirty-ratio");
    expectRejected(sim, "--pagecache nan --job w:buffered=1",
                   "--pagecache");
    expectRejected(sim, "--pagecache 1e30G", "--pagecache");
    expectRejected(sim, "--job web:weight=x", "--job: weight");
    expectRejected(sim, "--job web:depth=", "--job: depth");
    expectRejected(sim, "--seconds 0.1 --job a:depth=0 "
                        "--job b:weight=100",
                   "--job: depth");
    expectRejected(sim, "--job web:rate=inf", "--job: rate");
    expectRejected(sim, "--job web:span=12Q", "--job: span");
    expectRejected(sim, "--fleet --hosts many", "--hosts");
    expectRejected(sim, "--fleet --days -1", "--days");
    expectRejected(sim, "--fleet --jobs 2.5", "--jobs");
    expectRejected(sim, "--fleet --shards x", "--shards");
}

TEST(CliErrors, SimRejectsUndocumentedJobValues)
{
    const char *sim = IOCOST_SIM_BIN;
    expectRejected(sim, "--job web:rw=raed", "--job: rw");
    expectRejected(sim, "--job web:pattern=sequential",
                   "--job: pattern");
    expectRejected(sim, "--job web:buffered=2", "--job: buffered");
}

TEST(CliErrors, MonRejectsBadNumbers)
{
    const char *mon = IOCOST_MON_BIN;
    expectRejected(mon, "--seconds abc", "--seconds");
    expectRejected(mon, "--every x", "--every");
    expectRejected(mon, "--seed 1e3", "--seed");
    expectRejected(mon, "--pagecache inf", "--pagecache");
    expectRejected(mon, "--job web:weight=x", "--job: weight");
    expectRejected(mon, "--job web:rw=raed", "--job: rw");
    expectRejected(mon, "--fleet --hosts x", "--hosts");
}

/** The scenario flags mean the same in both tools: a fleet SSD
 *  name is a device in iocost_mon too. */
TEST(CliErrors, MonAcceptsFleetSsds)
{
    const Outcome o = run(std::string(IOCOST_MON_BIN) +
                          " --device D --seconds 0.05");
    EXPECT_EQ(o.status, 0) << o.output;
    EXPECT_NE(o.output.find("device=D"), std::string::npos)
        << o.output;
}

} // namespace
