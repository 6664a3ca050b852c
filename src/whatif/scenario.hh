/**
 * @file
 * What-if scenario: the immutable description of one single-host
 * experiment the query service answers questions about.
 *
 * A scenario pins everything that identifies a run (the
 * host::ScenarioSpec) plus the checkpoint marks the service
 * snapshots at. Two scenarios with equal canonical() strings build
 * byte-identical baselines, so (scenario hash, query) keys the
 * result cache.
 */

#ifndef IOCOST_WHATIF_SCENARIO_HH
#define IOCOST_WHATIF_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "host/scenario_spec.hh"
#include "sim/time.hh"

namespace iocost::whatif {

/**
 * One single-host what-if scenario: a host::ScenarioSpec (grammar
 * and defaults in host/scenario_spec.hh) plus one key,
 *
 *   marks=1s,2s,5s         checkpoint marks (sim/parse.hh TIME
 *                          tokens, default unit ms); t=0 is always
 *                          a mark
 *
 * Omitted marks default to the run's quarter points.
 */
struct Scenario : host::ScenarioSpec
{
    /** Checkpoint marks, sorted, deduplicated, starting at 0. */
    std::vector<sim::Time> marks;

    /**
     * Parse a scenario spec (grammar above) and normalize it.
     * @throws std::invalid_argument on a malformed spec.
     */
    static Scenario parse(const std::string &text);

    /**
     * ScenarioSpec::normalize, then default and canonicalize the
     * mark list. parse() normalizes automatically; callers
     * assembling a Scenario field-by-field must normalize before
     * use.
     * @throws std::invalid_argument on marks beyond the duration or
     *         an out-of-range field.
     */
    void normalize();

    /** Deterministic one-line rendering (the cache identity). */
    std::string canonical() const;

    /** FNV-1a hash of canonical(). */
    uint64_t hash() const;
};

} // namespace iocost::whatif

#endif // IOCOST_WHATIF_SCENARIO_HH
