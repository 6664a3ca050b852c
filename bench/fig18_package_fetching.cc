/**
 * @file
 * Figure 18: Package-fetching failures during the IOLatency ->
 * IOCost migration.
 *
 * Every simulated host-day, a system-slice package fetcher writes a
 * (scaled) package to disk under a deadline while the main workload
 * hammers the device; the host runs IOLatency before its staggered
 * migration day and IOCost after. Daily failure counts across the
 * fleet reproduce the paper's shape: the failure rate steps down
 * roughly 10x as the region migrates.
 */

#include "bench/migration_figure.hh"

int
main(int argc, char **argv)
{
    return iocost::bench::runMigrationFigure(
        argc, argv,
        {"Figure 18: Package fetching failures during the "
         "IOLatency -> IOCost migration",
         "Scaled fleet Monte-Carlo (see DESIGN.md): failures/day as "
         "hosts migrate.\nExpected shape: high plateau before, "
         "roughly 10x lower after.",
         1818, false, "~10x"});
}
