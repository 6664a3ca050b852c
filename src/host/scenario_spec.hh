/**
 * @file
 * Single-host scenario spec: the one grammar, canonical form and
 * host builder behind iocost_sim, iocost_mon and the what-if
 * service.
 *
 * Grammar (ScenarioSpec::parse): ';'- or newline-separated
 * key=value entries, whitespace around keys and values ignored.
 * Each key is also a command-line flag of iocost_sim and iocost_mon
 * ("--" + key, '_' written '-'):
 *
 *   device=NAME        any host::makeNamedDevice name: oldgen,
 *                      newgen (default), enterprise, A..H, hdd,
 *                      gp3, io2, pd-balanced, pd-ssd
 *   controller=LINE    a controllers::parseControllerSpec line
 *                      (default "iocost"), e.g. "iocost min=25"
 *   model=PAYLOAD      io.cost.model line (default: the device
 *                      profile's model)
 *   qos=PAYLOAD        io.cost.qos line; replaces the whole QoS
 *                      block, including the controller line's
 *   faults=SPEC        sim::FaultPlan spec (default: healthy)
 *   seconds=NUMBER     simulated run length, > 0 (default 10)
 *   seed=COUNT         (default 42)
 *   pagecache=BYTES    per-host page cache; 0 = none (default)
 *   dirty_ratio=NUMBER hard dirty wall in percent of the cache,
 *                      [0, 100]; background writeback at half;
 *                      0 keeps the mm::PageCacheConfig default
 *   job=JOB            repeatable (below)
 *
 * Values use the sim/parse.hh tokens (BYTES takes K/M/G suffixes).
 *
 *   JOB := NAME (":" key "=" value)*
 *     weight=1..10000     io.weight (default 100)
 *     depth=COUNT         IOs in flight (default 64); > 0 unless
 *                         the job has a rate, which ignores it
 *     bs=COUNT            bytes per IO, > 0 (default 4096)
 *     rw=read|write|mixed read share 100%, 0% or 50% (default read)
 *     pattern=rand|seq    (default rand)
 *     rate=NUMBER         open-loop IOs per second, > 0 (default:
 *                         closed loop at `depth`)
 *     buffered=0|1        1 routes the job through the page cache
 *     fsync=COUNT         buffered: fsync barrier every N writes
 *     span=COUNT          buffered: working set in bytes (0 =
 *                         the BufferedConfig default)
 *   NAME is non-empty and holds no ':', ';' or whitespace.
 *
 * Rules every front end shares:
 *  - no job= entry means two jobs, web:weight=200:depth=32 and
 *    batch:weight=100:depth=32;
 *  - job j owns the offsets from j << 40 (disjoint files);
 *  - an iocost controller takes its cost model from the controller
 *    line's model keys, else model=, else the device profile, and
 *    its QoS from qos=, else the line's qos keys, else a vrate
 *    range of [50%, 100%] (applyIocostDefaults);
 *  - a buffered job needs a page cache. The CLIs size one at 512M
 *    when --pagecache is left out (defaultPageCache); a spec
 *    without pagecache= fails to build.
 *
 * whatif::Scenario adds marks= (checkpoint times) to this grammar.
 */

#ifndef IOCOST_HOST_SCENARIO_SPEC_HH
#define IOCOST_HOST_SCENARIO_SPEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "controllers/factory.hh"
#include "core/config_parse.hh"
#include "host/host.hh"
#include "host/sweep.hh"
#include "workload/buffered_io.hh"
#include "workload/fio_workload.hh"

namespace iocost::host {

/** One job of a single-host scenario (JOB grammar above). */
struct JobSpec
{
    std::string name = "job";
    uint32_t weight = 100;
    /** Direct-IO shape; buffered jobs borrow rw, pattern, bs and
     *  depth from it. */
    workload::FioConfig fio;
    bool buffered = false;
    uint32_t fsyncEvery = 0;
    /** Buffered working set; 0 keeps the BufferedConfig default. */
    uint64_t spanBytes = 0;

    /**
     * @param what Names the job in errors (a flag or a key).
     * @throws std::invalid_argument naming the bad key or value.
     */
    static JobSpec parse(const std::string &text,
                         const std::string &what = "job");
};

/**
 * Fill in what an iocost spec parsed from @p line leaves out: the
 * line's own io.cost.model keys win over @p model and its
 * io.cost.qos keys over @p qos, and a `period=` setting survives
 * either way. Other mechanisms are left alone.
 */
void applyIocostDefaults(controllers::ControllerSpec &spec,
                         const std::string &line,
                         const core::LinearModelConfig &model,
                         const core::QosParams &qos);

/** Map a page-cache size and dirty wall onto host options (a zero
 *  size leaves the page cache off). */
void applyPageCache(HostOptions &opts, uint64_t bytes,
                    double dirtyRatioPct);

/** A host built from a ScenarioSpec, its jobs started. */
struct ScenarioHost
{
    std::unique_ptr<Host> host;
    /** The controller as built (defaults applied). */
    controllers::ControllerSpec controller;
    /** model= or the device profile (what io.cost.model says). */
    core::LinearModelConfig model;
    std::vector<JobSpec> jobs;
    std::vector<cgroup::CgroupId> cgroups;
    /** One slot per job; exactly one of the two is set. */
    std::vector<std::unique_ptr<workload::FioWorkload>> direct;
    std::vector<std::unique_ptr<workload::BufferedWorkload>>
        buffered;

    double iops(size_t j) const;
    const stat::Histogram &latency(size_t j) const;

    /** Host::resetStats plus every job's own counters. */
    void resetStats();
};

/** One single-host scenario (grammar in the file comment). */
struct ScenarioSpec
{
    std::string device = "newgen";
    std::string controller = "iocost";
    std::string model;
    std::string qos;
    std::string faults;
    double seconds = 10.0;
    uint64_t seed = 42;
    uint64_t pagecacheBytes = 0;
    double dirtyRatioPct = 0.0;
    /** Job texts as written (they are part of the identity). */
    std::vector<std::string> jobs;

    /** Simulated run length. */
    sim::Time duration() const;

    /**
     * Parse and normalize a spec.
     * @throws std::invalid_argument on a malformed spec.
     */
    static ScenarioSpec parse(const std::string &text);

    /**
     * Call @p fn(key, value) for every entry of @p text, in order.
     * @throws std::invalid_argument on an entry without '='.
     */
    static void forEachEntry(
        const std::string &text,
        const std::function<void(const std::string &,
                                 const std::string &)> &fn);

    /** The spec key a command-line flag sets ("--dirty-ratio" ->
     *  "dirty_ratio"), or "" when it sets none. */
    static std::string flagKey(const std::string &flag);

    /**
     * Set @p key from its text form, checking its syntax.
     * @param what Names the value in errors (the flag or the key).
     * @return false when @p key is not a spec key.
     * @throws std::invalid_argument("<what>: <reason>").
     */
    bool set(const std::string &key, const std::string &value,
             const std::string &what);

    /**
     * Fill the default jobs and check the numeric ranges. parse()
     * normalizes; callers assembling a spec field by field must
     * normalize before use.
     * @throws std::invalid_argument on an out-of-range value.
     */
    void normalize();

    /** Give buffered jobs a 512M page cache when none is sized. */
    void defaultPageCache();

    /** Deterministic one-line rendering that parse() reads back. */
    std::string canonical() const;

    /** model= or the device profile's cost model. */
    core::LinearModelConfig costModel() const;

    /** The parsed jobs, in order. */
    std::vector<JobSpec> jobSpecs() const;

    /**
     * Build the device and host on @p sim and start every job.
     * @param opts Base options (telemetry, fault injector); the
     *        controller, faults and page cache come from the spec.
     * @throws std::invalid_argument on a bad device, controller,
     *         model, qos, fault or job value.
     */
    ScenarioHost buildHost(sim::Simulator &sim,
                           HostOptions opts = {}) const;

    /**
     * Sweep options running @p specs over this scenario's device
     * and faults, each iocost spec defaulted as buildHost() does.
     * @throws std::invalid_argument on buffered jobs (the
     *         shadow-lane engine has no page cache), an empty spec
     *         list, or a bad device, model or qos.
     */
    SweepOptions sweepOptions(std::vector<std::string> specs) const;

    /** Start the (direct) jobs on a sweep's generator. */
    std::vector<std::unique_ptr<workload::FioWorkload>>
    startJobs(sim::Simulator &sim, SweepRunner &runner) const;

  private:
    bool hasBufferedJobs() const;

    /** The parsed qos= line, if any. */
    std::optional<core::QosParams> qosOverride() const;
};

} // namespace iocost::host

#endif // IOCOST_HOST_SCENARIO_SPEC_HH
