/**
 * @file
 * whatif_branch: whatif::Service with two worker replicas answering
 * a closed loop of two clients. Each client waits for its reply
 * before sending the next query. Queries mix weight, device and
 * fault changes at branch points spread across the scenario's
 * marks; one in ten repeats an earlier query, so the result cache is
 * exercised at a fixed share. Host::snapshot/restore and query
 * handling dominate; the simulation hot path shows only diluted.
 *
 * The scenario is fixed; the seed generates the query stream. One
 * op is one query, timed from submit until its future is ready.
 * Set-up is device profiling plus both replicas' baseline runs and
 * checkpoints.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "core/cost_model.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "profile/device_profiler.hh"
#include "sim/rng.hh"
#include "whatif/query.hh"
#include "whatif/service.hh"
#include "workload/fio_workload.hh"

namespace perfbench {
namespace {

using namespace iocost;

constexpr const char *kScenario =
    "device=newgen;seconds=2;seed=2022;"
    "marks=400ms,800ms,1200ms,1600ms;"
    "job=web:weight=200:depth=16:rate=3000;"
    "job=batch:weight=100:depth=32:rw=write;"
    "job=scan:weight=100:depth=4:bs=131072:pattern=seq";

constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;

/** Seeded query stream: JSON lines, as iocost_whatif reads them. */
std::vector<std::string>
makeQueries(uint64_t seed, size_t n)
{
    static const char *const kCgs[] = {"web", "batch", "scan"};
    static const char *const kProfiles[] = {
        "oldgen", "enterprise", "A", "B", "C", "D", "E", "F", "G", "H"};
    sim::Rng rng(seed);
    std::vector<std::string> out;
    out.reserve(n);
    char buf[160];
    for (size_t i = 0; i < n; ++i) {
        if (i % 10 == 9) {
            out.push_back(out[rng.below(i)]);
            continue;
        }
        const uint64_t from = rng.below(1900);
        switch (i % 3) {
          case 0:
            std::snprintf(buf, sizeof buf,
                          "{\"q\":\"weight\",\"cg\":\"%s\",\"value\":%llu,"
                          "\"from\":\"%llums\"}",
                          kCgs[rng.below(3)],
                          static_cast<unsigned long long>(
                              25 + rng.below(976)),
                          static_cast<unsigned long long>(from));
            break;
          case 1:
            std::snprintf(buf, sizeof buf,
                          "{\"q\":\"device\",\"profile\":\"%s\","
                          "\"from\":\"%llums\"}",
                          kProfiles[rng.below(10)],
                          static_cast<unsigned long long>(from));
            break;
          default:
            std::snprintf(
                buf, sizeof buf,
                "{\"q\":\"fault\",\"spec\":\"lat@%llums+%llums=%llu\","
                "\"from\":\"%llums\"}",
                static_cast<unsigned long long>(from + rng.below(200)),
                static_cast<unsigned long long>(100 + rng.below(400)),
                static_cast<unsigned long long>(2 + rng.below(7)),
                static_cast<unsigned long long>(from));
            break;
        }
        out.emplace_back(buf);
    }
    return out;
}

/** Simulated ms a branch of @p q replays from its checkpoint. */
double
replayMs(const whatif::Scenario &sc, const whatif::Query &q)
{
    sim::Time mark = 0;
    for (sim::Time m : sc.marks) {
        if (m <= q.from)
            mark = std::max(mark, m);
    }
    return sim::toMillis(sc.duration() - mark);
}

/** One answered query. */
struct Answer
{
    size_t index = 0;
    int64_t latencyNs = 0;
    int64_t doneNs = 0; ///< completion time, from the loop's start
    /** Simulated ms its branch replays, nearest mark to the end (the
     *  query's cost unless the cache answers it). */
    double replayMs = 0;
    int64_t parseNs = -1; ///< measured only in traced windows
    std::string reply;
};

bool
isDiff(const std::string &reply)
{
    return reply.rfind("{\"type\":\"whatif_diff\"", 0) == 0;
}

/**
 * Host::snapshot and Host::restore cost on a host shaped like the
 * scenario (same device, controller and jobs), mid-run: medians of
 * @p reps calls, in ms.
 */
std::pair<double, double>
snapshotRestoreMs(const core::LinearModelConfig &model, int reps)
{
    sim::Simulator sim(2022);
    host::HostOptions o;
    o.controller.iocost.model = core::CostModel::fromConfig(model);
    host::Host h(sim,
                 std::make_unique<device::SsdModel>(sim,
                                                    device::newGenSsd()),
                 o);
    std::vector<std::unique_ptr<workload::FioWorkload>> jobs;
    workload::FioConfig web;
    web.arrival = workload::Arrival::Rate;
    web.ratePerSec = 3000;
    web.iodepth = 16;
    workload::FioConfig batch;
    batch.readFraction = 0;
    batch.iodepth = 32;
    batch.offsetBase = 1ull << 40;
    workload::FioConfig scan;
    scan.randomFraction = 0;
    scan.blockSize = 131072;
    scan.iodepth = 4;
    scan.offsetBase = 2ull << 40;
    jobs.push_back(std::make_unique<workload::FioWorkload>(
        sim, h.layer(), h.addWorkload("web", 200), web));
    jobs.push_back(std::make_unique<workload::FioWorkload>(
        sim, h.layer(), h.addWorkload("batch", 100), batch));
    jobs.push_back(std::make_unique<workload::FioWorkload>(
        sim, h.layer(), h.addWorkload("scan", 100), scan));
    for (auto &j : jobs) {
        h.track(*j);
        j->start();
    }
    sim.runUntil(800 * sim::kMsec);

    std::vector<int64_t> snapNs, restoreNs;
    host::HostSnapshot snap;
    for (int i = 0; i < reps; ++i) {
        const int64_t t0 = nowNs();
        snap = h.snapshot();
        const int64_t t1 = nowNs();
        h.restore(snap);
        const int64_t t2 = nowNs();
        snapNs.push_back(t1 - t0);
        restoreNs.push_back(t2 - t1);
    }
    return {quantileMs(snapNs, 0.5), quantileMs(restoreNs, 0.5)};
}

} // namespace

Result
runWhatifBranch(const Options &opt)
{
    Result r;
    const whatif::Scenario sc = whatif::Scenario::parse(kScenario);

    const int64_t setupStart = nowNs();
    const core::LinearModelConfig model =
        profile::DeviceProfiler::profileSsd(device::newGenSsd()).model;
    const int64_t profileNs = nowNs() - setupStart;
    whatif::Service svc(sc, kWorkers);
    {
        // One query per worker builds both replicas: baseline run
        // plus checkpoints. Weights below 25 never occur in the
        // measured stream, so these leave no cache entries it hits.
        auto a = svc.submit(whatif::Query::parse(
            "{\"q\":\"weight\",\"cg\":\"web\",\"value\":1}"));
        auto b = svc.submit(whatif::Query::parse(
            "{\"q\":\"weight\",\"cg\":\"web\",\"value\":2}"));
        if (!isDiff(a.get()) || !isDiff(b.get()))
            throw std::runtime_error("what-if warm-up query failed");
    }
    r.setupS = static_cast<double>(nowNs() - setupStart) / 1e9;
    if (opt.setupOnly)
        return r;

    const std::vector<std::string> lines = makeQueries(opt.seed, 1 << 15);
    const uint64_t hitsBefore = svc.cacheHits();
    // Windows of half a second, each on the next pair of CPUs (see
    // Window). The traced run times Query::parse in every other
    // window; the rate difference between the two kinds of window is
    // the tracing overhead.
    constexpr int64_t kPinNs = 500 * 1000 * 1000;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::vector<Answer> answers;
    const int64_t loopStart = nowNs();
    const int64_t deadline =
        loopStart + static_cast<int64_t>(opt.seconds * 1e9);
    auto clientLoop = [&](std::vector<Answer> &mine) {
        while (nowNs() < deadline) {
            const size_t i = next.fetch_add(1);
            if (i >= lines.size())
                break;
            Answer a;
            a.index = i;
            const int64_t p0 = nowNs();
            const bool timed =
                opt.trace && ((p0 - loopStart) / kPinNs) % 2 == 1;
            const whatif::Query q = whatif::Query::parse(lines[i]);
            const int64_t t0 = nowNs();
            if (timed)
                a.parseNs = t0 - p0;
            a.replayMs = replayMs(sc, q);
            a.reply = svc.submit(q).get();
            const int64_t t1 = nowNs();
            a.latencyNs = t1 - t0;
            a.doneNs = t1 - loopStart;
            mine.push_back(std::move(a));
        }
    };
    std::string clientError;
    int64_t clientBusyNs = 0; // loop start to each client's last reply
    auto client = [&] {
        std::vector<Answer> mine;
        try {
            clientLoop(mine);
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mu);
            clientError = e.what();
        }
        std::lock_guard<std::mutex> lock(mu);
        if (!mine.empty())
            clientBusyNs += mine.back().doneNs;
        for (Answer &a : mine)
            answers.push_back(std::move(a));
    };
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c)
        clients.emplace_back(client);
    const std::vector<int> cpus = allowedCpus();
    for (int64_t k = 0; nowNs() < deadline; ++k) {
        pinThreads({cpus[k % cpus.size()], cpus[(k + 1) % cpus.size()]});
        const int64_t until =
            std::min(deadline, loopStart + (k + 1) * kPinNs);
        while (nowNs() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread &t : clients)
        t.join();
    const int64_t loopNs = nowNs() - loopStart;
    pinThreads(cpus);
    if (!clientError.empty())
        throw std::runtime_error("what-if client: " + clientError);
    std::sort(answers.begin(), answers.end(),
              [](const Answer &a, const Answer &b) {
                  return a.index < b.index;
              });

    // Checks: every reply is a diff document, and a sampled share is
    // byte-identical to a cold run with no checkpoint machinery.
    uint64_t errors = 0, coldFailed = 0, coldChecked = 0;
    const uint64_t coldMax = opt.tiny ? 1 : 4;
    for (const Answer &a : answers) {
        if (!isDiff(a.reply)) {
            ++errors;
            continue;
        }
        if (a.index % 16 == 0 && coldChecked < coldMax) {
            ++coldChecked;
            const whatif::Query q = whatif::Query::parse(lines[a.index]);
            coldFailed += whatif::Service::evaluateCold(sc, q) != a.reply;
        }
    }
    r.attempted = answers.size();
    r.failed = errors + coldFailed;
    r.checks.push_back({"reply_is_diff", answers.size(), errors});
    r.checks.push_back({"branch_equals_cold", coldChecked, coldFailed});

    // The scenario's baseline: deterministic simulated outcome.
    {
        const whatif::Replica base(sc, false);
        uint64_t bytes = 0;
        int64_t p99 = 0;
        for (const whatif::JobStats &j : base.baseline().jobs) {
            bytes += j.bytes;
            if (j.name == "web")
                p99 = j.p99Ns;
        }
        r.addSim("sim_p99_us", static_cast<double>(p99) / 1e3, "sim_us");
        r.addSim("sim_mbps",
                 static_cast<double>(bytes) / sc.seconds / 1e6, "MB/s");
    }

    if (!opt.trace) {
        // One window per pinning period; an op belongs to the window
        // it completed in, and a short remainder joins the one before.
        std::vector<Window> windows(
            std::max<int64_t>(1, (loopNs + kPinNs / 2) / kPinNs));
        for (size_t k = 0; k < windows.size(); ++k) {
            windows[k].ns = k + 1 < windows.size()
                                ? kPinNs
                                : loopNs - static_cast<int64_t>(k) * kPinNs;
        }
        for (const Answer &a : answers) {
            Window &w = windows[std::min<size_t>(a.doneNs / kPinNs,
                                                 windows.size() - 1)];
            w.work += 1;
            w.effort += a.replayMs;
            w.opNs.push_back(a.latencyNs);
        }
        addHostTimeMetrics(r, std::move(windows), peakRssMb());
        for (const Metric &m : r.sim)
            r.metrics.push_back(m);
        return r;
    }

    // Per-layer probes, after the measured loop and on this thread:
    // a private replica times the baseline and individual branches.
    int64_t parseSum = 0, opSum = 0;
    uint64_t timedOps = 0;
    for (const Answer &a : answers) {
        opSum += a.latencyNs;
        if (a.parseNs >= 0) {
            parseSum += a.parseNs;
            ++timedOps;
        }
    }
    const uint64_t untimedOps = answers.size() - timedOps;
    const int64_t b0 = nowNs();
    whatif::Replica probe(sc);
    const int64_t baselineNs = nowNs() - b0;
    std::vector<int64_t> branchNs, restNs;
    const size_t branchMax = opt.tiny ? 2 : 12;
    for (const Answer &a : answers) {
        if (branchNs.size() >= branchMax)
            break;
        if (a.index % 10 == 9 || !isDiff(a.reply))
            continue; // repeats may be answered from the cache
        const whatif::Query q = whatif::Query::parse(lines[a.index]);
        const int64_t t0 = nowNs();
        probe.branch(q);
        const int64_t dt = nowNs() - t0;
        branchNs.push_back(dt);
        restNs.push_back(a.latencyNs - dt);
    }
    const auto [snapMs, restoreMs] =
        snapshotRestoreMs(model, opt.tiny ? 3 : 20);

    r.add("profile.ms", static_cast<double>(profileNs) / 1e6, "ms");
    r.add("host.snapshot_ms", snapMs, "ms");
    r.add("host.restore_ms", restoreMs, "ms");
    r.add("host.snapshot_kib",
          static_cast<double>(probe.checkpointBytes()) / 1024.0, "KiB");
    r.add("whatif.parse_us",
          timedOps ? static_cast<double>(parseSum) / timedOps / 1e3 : 0.0,
          "us");
    r.add("whatif.branch_ms", quantileMs(branchNs, 0.5), "ms");
    r.add("whatif.queue_wait_ms", quantileMs(restNs, 0.5), "ms");
    r.add("whatif.cache_hit_ratio",
          answers.empty() ? 0.0
                          : static_cast<double>(svc.cacheHits() -
                                                hitsBefore) /
                                static_cast<double>(answers.size()),
          "ratio");
    r.add("whatif.baseline_ms", static_cast<double>(baselineNs) / 1e6,
          "ms");

    // Each client's time up to its last reply is parse plus
    // submit-to-ready per op; the residual is query lookup and
    // bookkeeping. Windows alternate, so each mode had half the loop.
    Reconciliation rec;
    rec.wallNs = static_cast<double>(clientBusyNs);
    rec.selfSumNs = static_cast<double>(opSum + parseSum);
    if (timedOps > 0 && untimedOps > 0) {
        rec.tracedOverUntraced = static_cast<double>(untimedOps) /
                                 static_cast<double>(timedOps);
    }
    addReconciliation(r, rec);
    return r;
}

} // namespace perfbench
