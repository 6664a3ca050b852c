/**
 * @file
 * Figure 19: Container-cleanup failures during the IOLatency ->
 * IOCost migration.
 *
 * Same fleet Monte-Carlo as Fig. 18, reporting the host-critical
 * container agent's cleanup walks that exceed the (scaled) stall
 * threshold. Expected shape: a roughly 3x reduction as the region
 * migrates, taking effect immediately per migrated host.
 */

#include "bench/migration_figure.hh"

int
main(int argc, char **argv)
{
    return iocost::bench::runMigrationFigure(
        argc, argv,
        {"Figure 19: Container cleanup failures during the "
         "IOLatency -> IOCost migration",
         "Scaled fleet Monte-Carlo (see DESIGN.md): cleanup walks "
         "over the stall\nthreshold per day. Expected shape: ~3x "
         "fewer after migration.",
         1919, true, "~3x"});
}
