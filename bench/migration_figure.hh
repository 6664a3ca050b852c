/**
 * @file
 * The run behind Figures 18 and 19: the scaled fleet Monte-Carlo
 * (see DESIGN.md) of the IOLatency -> IOCost migration, on the
 * migration figures' fleet (fleet::kMigrationFleetSpec) at the
 * figure's seed. Each figure reports the daily failures of one
 * deadline agent: the package fetcher (Fig. 18) or the container
 * cleanup walk (Fig. 19).
 */

#ifndef IOCOST_BENCH_MIGRATION_FIGURE_HH
#define IOCOST_BENCH_MIGRATION_FIGURE_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/common.hh"
#include "fleet/fleet_sim.hh"

namespace iocost::bench {

/** What one migration figure runs and reports. */
struct MigrationFigure
{
    const char *title;
    const char *description;
    uint64_t seed;
    /** Report the cleanup agent instead of the package fetcher. */
    bool cleanup;
    /** The paper's pre/post reduction, e.g. "~10x". */
    const char *paperReduction;
};

inline int
runMigrationFigure(int argc, char **argv, const MigrationFigure &fig)
{
    // Flags first: a rejected flag exits before stdout sees the
    // banner. Results are byte-identical for any --jobs/--shards
    // value; the default uses every hardware thread.
    const BenchArgs args = parseArgs(argc, argv);
    banner(fig.title, fig.description);

    fleet::FleetScenario sc = fleet::FleetScenario::parse(
        std::string(fleet::kMigrationFleetSpec) +
        " seed=" + std::to_string(fig.seed));
    if (!args.faults.empty())
        sc.faults = args.faults;
    fleet::RunOptions opts;
    opts.jobs = args.jobs;
    opts.shards = args.shards;
    const fleet::FleetAggregate agg =
        fleet::FleetSim::runScenario(sc, opts);

    Table table({"Day", "Fleet on IOCost",
                 fig.cleanup ? "Cleanups" : "Fetches", "Failures",
                 "Failure rate"});
    unsigned before_fail = 0, before_n = 0;
    unsigned after_fail = 0, after_n = 0;
    for (const fleet::FleetDayResult &d : agg.days) {
        const unsigned n =
            fig.cleanup ? d.cleanupAttempts : d.fetchAttempts;
        const unsigned fail =
            fig.cleanup ? d.cleanupFailures : d.fetchFailures;
        table.row({fmt("%.0f", (double)d.day),
                   fmt("%.0f%%", 100.0 * d.fractionOnIoCost),
                   fmt("%.0f", (double)n), fmt("%.0f", (double)fail),
                   fmt("%.1f%%", 100.0 * fail / n)});
        if (d.fractionOnIoCost < 0.05) {
            before_fail += fail;
            before_n += n;
        } else if (d.fractionOnIoCost > 0.95) {
            after_fail += fail;
            after_n += n;
        }
    }
    table.print();

    const double before =
        before_n ? 100.0 * before_fail / before_n : 0.0;
    const double after = after_n ? 100.0 * after_fail / after_n
                                 : 0.0;
    std::printf("Pre-migration failure rate:  %.1f%%\n", before);
    std::printf("Post-migration failure rate: %.1f%%\n", after);
    if (after > 0) {
        std::printf("Reduction: %.1fx (paper: %s)\n", before / after,
                    fig.paperReduction);
    } else {
        std::printf("Reduction: complete (paper: %s)\n",
                    fig.paperReduction);
    }
    const stat::Histogram *lat =
        fig.cleanup ? agg.cleanupTime : agg.fetchTime;
    std::printf(
        "Completed-%s latency: iolatency p50=%s p99=%s | "
        "iocost p50=%s p99=%s\n",
        fig.cleanup ? "cleanup" : "fetch",
        fmtTime(lat[fleet::kCtlIoLatency].quantile(0.50)).c_str(),
        fmtTime(lat[fleet::kCtlIoLatency].quantile(0.99)).c_str(),
        fmtTime(lat[fleet::kCtlIoCost].quantile(0.50)).c_str(),
        fmtTime(lat[fleet::kCtlIoCost].quantile(0.99)).c_str());
    return 0;
}

} // namespace iocost::bench

#endif // IOCOST_BENCH_MIGRATION_FIGURE_HH
