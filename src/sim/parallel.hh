/**
 * @file
 * The batch worker loop every parallel runner shares: the fleet's
 * shard engine, host::runSweep's config groups and host::runPaired's
 * closed-loop configs.
 *
 * parallelFor(n, workers, fn) calls fn(i) exactly once for each
 * i in [0, n) on up to @p workers threads, the calling thread
 * among them. Workers pull the next index from a shared counter, so
 * uneven tasks balance themselves. An index that throws does not
 * stop the others: every index still runs, and after the join the
 * exception of the lowest failing index is rethrown. Which
 * exception a caller sees therefore never depends on the worker
 * count or the schedule.
 *
 * Callers that want "0 = one per hardware thread" (or "0 = 1")
 * resolve that themselves; here 0 workers means 1.
 */

#ifndef IOCOST_SIM_PARALLEL_HH
#define IOCOST_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace iocost::sim {

/** Run fn(0) .. fn(n - 1), each once, on up to @p workers threads
 *  (clamped to [1, n]); rethrows the lowest failing index's
 *  exception after all indices ran. */
void parallelFor(size_t n, unsigned workers,
                 const std::function<void(size_t)> &fn);

} // namespace iocost::sim

#endif // IOCOST_SIM_PARALLEL_HH
