/**
 * @file
 * iocost_sim — command-line scenario driver.
 *
 * Assembles a host (device + controller + cgroup hierarchy), runs a
 * set of fio-style jobs described on the command line, and prints
 * per-job throughput/latency plus controller state. Accepts kernel-
 * format io.cost.model / io.cost.qos strings, so configurations can
 * be copied verbatim from (or to) a real machine.
 *
 * Usage:
 *   iocost_sim [--device NAME] [--controller "<spec>"]
 *              [--model "<io.cost.model line>"]
 *              [--qos "<io.cost.qos line>"] [--faults "<spec>"]
 *              [--seconds N] [--seed N] [--pagecache SIZE]
 *              [--dirty-ratio PCT] [--job JOB] ...
 *               the single-host scenario flags: each sets the
 *               host::ScenarioSpec key of the same name, whose
 *               grammar, defaults and job syntax are documented
 *               once, in host/scenario_spec.hh
 *              [--whatif '{"q":...}']  one-shot what-if query
 *               against the scenario the flags above describe (see
 *               whatif/query.hh for the JSON grammar); prints one
 *               whatif_diff document and exits. iocost_whatif
 *               serves the same queries as a concurrent service.
 *              [--sweep "spec1;spec2;..."]  multi-config sweep:
 *               run every controller spec against the SAME workload
 *               and device-model event stream (common random
 *               numbers — one generator, K shadow controller
 *               lanes). ';' separates configs; ',' within a config
 *               doubles as a token separator, so
 *               "iocost,min=25;iocost,min=50" is a two-config
 *               sweep. Mutually exclusive with --controller;
 *               --model/--qos apply to every config. --jobs
 *               partitions the configs across worker threads
 *               (per-config output is byte-identical for any value).
 *
 * Fleet mode runs the §4.8 migration Monte-Carlo instead of a single
 * host, through the sharded streaming engine (results are
 * byte-identical for any --jobs/--shards value):
 *   iocost_sim --fleet [--hosts N] [--days N] [--jobs N] [--seed N]
 *              [--shards N]
 *                 without --scenario: the Fig. 18/19 fleet
 *                 (fleet::kMigrationFleetSpec) with these hosts,
 *                 days and seed; the migration window follows days
 *              [--scenario "<FleetScenario spec>"|@scenario.txt]
 *                 full scenario grammar (device/workload mixes,
 *                 staged migration) — see fleet/fleet_scenario.hh;
 *                 overrides --hosts/--days/--seed
 *              [--sweep "spec1;spec2;..."]  paired-CRN sweep: every
 *                 host-day is run once per config with the same
 *                 host-day seed; one aggregate per config
 *                 (equivalent to the scenario `sweep=` key)
 *              [--out agg.json]  write the streaming-aggregate JSON
 *                 (readable by iocost_mon --fleet --in); under
 *                 --sweep, the multi-config sweep document
 *
 * Example:
 *   iocost_sim --device oldgen --controller iocost --seconds 10 \
 *     --job web:weight=200:depth=32 --job batch:weight=100:depth=32
 */

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hh"
#include "fleet/fleet_sim.hh"
#include "host/scenario_spec.hh"
#include "sim/logging.hh"
#include "whatif/query.hh"
#include "whatif/scenario.hh"
#include "whatif/service.hh"

namespace {

using namespace iocost;
using cli::orFatal;

/** Multi-config host sweep: one generator, K controller lanes. */
int
runHostSweep(const host::ScenarioSpec &spec, host::SweepOptions sopts,
             unsigned workers)
{
    const double seconds = spec.seconds;
    const auto warmup =
        static_cast<sim::Time>(0.1 * seconds * sim::kSec);
    const auto measure = static_cast<sim::Time>(seconds * sim::kSec);
    const std::vector<host::JobSpec> jobs = spec.jobSpecs();

    auto body = [&](sim::Simulator &s, host::SweepRunner &runner) {
        const auto running = spec.startJobs(s, runner);
        s.runUntil(warmup);
        runner.resetStats();
        s.runUntil(warmup + measure);
        for (auto &job : running)
            job->stop();
    };
    // Each lane renders its own table rows.
    auto collect = [&](host::SweepRunner &runner, size_t lane,
                       size_t) {
        std::string out;
        char buf[160];
        blk::BlockLayer &layer = runner.laneLayer(lane);
        const auto &cgs = runner.workloadCgroups();
        for (size_t j = 0; j < cgs.size(); ++j) {
            const blk::CgroupIoStats &st = layer.stats(cgs[j].second);
            std::snprintf(
                buf, sizeof buf,
                "%-12s %8u %10.0f %10.1f %8.0fus %8.0fus\n",
                jobs[j].name.c_str(), jobs[j].weight,
                static_cast<double>(st.reads + st.writes) / seconds,
                static_cast<double>(st.readBytes + st.writeBytes) /
                    1e6 / seconds,
                sim::toMicros(st.totalLatency.quantile(0.5)),
                sim::toMicros(st.totalLatency.quantile(0.99)));
            out += buf;
        }
        if (core::IoCost *ioc = runner.laneIocost(lane)) {
            std::snprintf(buf, sizeof buf,
                          "vrate: %.0f%%  (planning period %.0fms)\n",
                          100.0 * ioc->vrate(),
                          sim::toMillis(ioc->period()));
            out += buf;
        }
        return out;
    };

    const std::vector<std::string> labels = sopts.specs;
    const std::vector<std::string> results = orFatal([&] {
        return host::runSweep(std::move(sopts), spec.seed, workers,
                              body, collect);
    });

    std::printf("device=%s sweep=%zu configs seconds=%.1f "
                "seed=%llu (common random numbers)\n",
                spec.device.c_str(), results.size(), seconds,
                static_cast<unsigned long long>(spec.seed));
    std::printf("io.cost.model: %s\n",
                core::formatModelLine(spec.costModel()).c_str());
    for (size_t c = 0; c < results.size(); ++c) {
        std::printf("\nconfig[%zu]: %s\n", c, labels[c].c_str());
        std::printf("%-12s %8s %10s %10s %10s %10s\n%s", "job",
                    "weight", "IOPS", "MB/s", "p50", "p99",
                    results[c].c_str());
    }
    return 0;
}

/** One host, warmed up for 10% of the run, then measured. */
int
runSingleHost(const host::ScenarioSpec &spec)
{
    sim::Simulator sim(spec.seed);
    host::ScenarioHost built =
        orFatal([&] { return spec.buildHost(sim); });

    std::printf("device=%s controller=%s seconds=%.1f seed=%llu\n",
                spec.device.c_str(), built.controller.name.c_str(),
                spec.seconds,
                static_cast<unsigned long long>(spec.seed));
    std::printf("io.cost.model: %s\n",
                core::formatModelLine(built.model).c_str());
    if (built.controller.name == "iocost") {
        std::printf(
            "io.cost.qos:   %s\n",
            core::formatQosLine(built.controller.iocost.qos).c_str());
    }

    // Host::resetStats is the one documented stats boundary;
    // workload counters reset with it.
    const auto warmup =
        static_cast<sim::Time>(0.1 * spec.seconds * sim::kSec);
    sim.runUntil(warmup);
    built.resetStats();
    sim.runUntil(warmup +
                 static_cast<sim::Time>(spec.seconds * sim::kSec));

    std::printf("\n%-12s %8s %10s %10s %10s %10s\n", "job",
                "weight", "IOPS", "MB/s", "p50", "p99");
    for (size_t j = 0; j < built.jobs.size(); ++j) {
        const double iops = built.iops(j);
        const stat::Histogram &lat = built.latency(j);
        std::printf("%-12s %8u %10.0f %10.1f %8.0fus %8.0fus\n",
                    built.jobs[j].name.c_str(), built.jobs[j].weight,
                    iops, iops * built.jobs[j].fio.blockSize / 1e6,
                    sim::toMicros(lat.quantile(0.5)),
                    sim::toMicros(lat.quantile(0.99)));
    }
    if (built.host->hasPageCache()) {
        const mm::PageCache &pc = built.host->pageCache();
        std::printf("pagecache: dirty=%.1fM writeback-inflight="
                    "%.1fM cached=%.1fM\n",
                    pc.totalDirty() / 1e6, pc.wbInflight() / 1e6,
                    pc.totalCached() / 1e6);
    }
    if (auto *ioc = built.host->iocost()) {
        std::printf("\nvrate: %.0f%%  (planning period %.0fms)\n",
                    100.0 * ioc->vrate(),
                    sim::toMillis(ioc->period()));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    host::ScenarioSpec spec;
    bool controller_set = false;
    std::string sweep_arg;
    std::string whatif_arg;
    bool fleet_mode = false;
    std::string fleet_size; // " hosts=N days=N" from the flags
    unsigned fleet_jobs = 1;
    unsigned fleet_shards = 0;
    std::string scenario_arg, out_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                sim::fatal(arg + " needs a value");
            return argv[++i];
        };
        auto count = [&] { return cli::count(next(), arg); };
        if (const std::string key = host::ScenarioSpec::flagKey(arg);
            !key.empty()) {
            controller_set = controller_set || key == "controller";
            const std::string value = next();
            orFatal([&] { return spec.set(key, value, arg); });
        } else if (arg == "--sweep") {
            sweep_arg = next();
        } else if (arg == "--whatif") {
            whatif_arg = next();
        } else if (arg == "--fleet") {
            fleet_mode = true;
        } else if (arg == "--hosts") {
            fleet_size += " hosts=" + std::to_string(count());
        } else if (arg == "--days") {
            fleet_size += " days=" + std::to_string(count());
        } else if (arg == "--jobs") {
            fleet_jobs = count();
        } else if (arg == "--shards") {
            fleet_shards = count();
        } else if (arg == "--scenario") {
            scenario_arg = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--help" || arg == "-h") {
            std::printf("see the header of tools/iocost_sim.cc\n");
            return 0;
        } else {
            sim::fatal("unknown flag: " + arg);
        }
    }
    if (fleet_mode) {
        // Without --scenario the flags size the migration figures'
        // fleet; parsing them as one spec derives the migration
        // window from the day count.
        const std::string text =
            scenario_arg.empty()
                ? fleet::kMigrationFleetSpec + fleet_size +
                      " seed=" + std::to_string(spec.seed)
                : cli::specText(scenario_arg);
        fleet::FleetScenario sc = orFatal(
            [&] { return fleet::FleetScenario::parse(text); });
        if (!spec.faults.empty())
            sc.faults = spec.faults;
        fleet::RunOptions run_opts;
        run_opts.jobs = fleet_jobs;
        run_opts.shards = fleet_shards;
        if (!sweep_arg.empty())
            sc.sweep = controllers::splitSpecList(sweep_arg);
        if (!sc.sweep.empty()) {
            std::printf("fleet: %s\n", sc.canonical().c_str());
            const auto aggs = orFatal([&] {
                return fleet::FleetSim::runScenarioSweep(sc, run_opts);
            });
            std::printf(
                "engine: jobs=%u shards=%u host-days=%llu "
                "x %zu configs\n",
                aggs[0].jobs, aggs[0].shards,
                static_cast<unsigned long long>(aggs[0].hostDays),
                aggs.size());
            std::printf("%-44s %10s %10s %10s %10s\n", "config",
                        "fetchfail", "cleanfail", "fetch-p99",
                        "clean-p99");
            fleet::SweepView view;
            view.labels = sc.sweep;
            for (size_t c = 0; c < aggs.size(); ++c) {
                const auto ctl_spec =
                    controllers::parseControllerSpec(sc.sweep[c]);
                const unsigned ctl =
                    ctl_spec && ctl_spec->name == "iocost"
                        ? fleet::kCtlIoCost
                        : fleet::kCtlIoLatency;
                unsigned ff = 0, cf = 0;
                for (const auto &d : aggs[c].days) {
                    ff += d.fetchFailures;
                    cf += d.cleanupFailures;
                }
                view.entries.push_back(
                    fleet::AggregateView::from(aggs[c]));
                const auto &s = view.entries.back().ctl[ctl];
                std::printf(
                    "%-44s %10u %10u %8.1fms %8.1fms\n",
                    sc.sweep[c].c_str(), ff, cf, s.fetchP99Ms,
                    s.cleanupP99Ms);
            }
            if (!out_path.empty()) {
                FILE *out = cli::openOut(out_path);
                fleet::writeSweepJson(view, out);
                std::fclose(out);
                std::printf("wrote sweep to %s\n",
                            out_path.c_str());
            }
            return 0;
        }
        std::printf("fleet: %s\n", sc.canonical().c_str());
        const fleet::FleetAggregate agg =
            fleet::FleetSim::runScenario(sc, run_opts);
        std::printf("engine: jobs=%u shards=%u host-days=%llu\n",
                    agg.jobs, agg.shards,
                    static_cast<unsigned long long>(agg.hostDays));
        std::printf("%5s %10s %10s %10s\n", "day", "on-iocost",
                    "fetchfail", "cleanfail");
        for (const auto &d : agg.days) {
            std::printf("%5u %9.0f%% %10u %10u\n", d.day,
                        100.0 * d.fractionOnIoCost,
                        d.fetchFailures, d.cleanupFailures);
        }
        if (!out_path.empty()) {
            FILE *out = cli::openOut(out_path);
            fleet::writeAggregateJson(
                fleet::AggregateView::from(agg), out);
            std::fclose(out);
            std::printf("wrote aggregate to %s\n",
                        out_path.c_str());
        }
        return 0;
    }
    if (!out_path.empty())
        sim::fatal("--out is only meaningful with --fleet");
    if (!scenario_arg.empty())
        sim::fatal("--scenario is only meaningful with --fleet");
    orFatal([&] { spec.normalize(); });
    spec.defaultPageCache();
    if (!whatif_arg.empty()) {
        // One-shot what-if: answer the query against the scenario
        // the flags describe with a cold full re-run (no checkpoint
        // machinery; byte-identical to the service's
        // branch-and-replay answer).
        if (!sweep_arg.empty())
            sim::fatal("--whatif and --sweep are mutually "
                       "exclusive");
        const std::string answer = orFatal([&] {
            return whatif::Service::evaluateCold(
                whatif::Scenario{spec}, whatif::Query::parse(whatif_arg));
        });
        std::printf("%s\n", answer.c_str());
        return 0;
    }
    if (!sweep_arg.empty()) {
        if (controller_set) {
            sim::fatal(
                "--sweep and --controller are mutually exclusive");
        }
        const std::vector<std::string> specs =
            controllers::splitSpecList(sweep_arg);
        host::SweepOptions sopts =
            orFatal([&] { return spec.sweepOptions(specs); });
        // A one-config sweep runs the plain single-host path below,
        // which is byte-identical and has no observation overhead.
        if (specs.size() > 1)
            return runHostSweep(spec, std::move(sopts), fleet_jobs);
        spec.controller = specs[0];
    }
    return runSingleHost(spec);
}
