#include "host/scenario_spec.hh"

#include <cinttypes>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "host/device_factory.hh"
#include "sim/fault.hh"
#include "sim/parse.hh"

namespace iocost::host {

namespace {

[[noreturn]] void
reject(const std::string &what, const std::string &why)
{
    throw std::invalid_argument(what + ": " + why);
}

std::string
trim(const std::string &s)
{
    const size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    const size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

const char *const kDefaultJobs[] = {"web:weight=200:depth=32",
                                    "batch:weight=100:depth=32"};

/** The single-host QoS an iocost line without qos keys runs. */
core::QosParams
defaultQos()
{
    core::QosParams qos;
    qos.vrateMin = 0.5;
    qos.vrateMax = 1.0;
    return qos;
}

/** The value a spec parser returned for @p text, or a rejection. */
template <class T>
T
required(const std::optional<T> &parsed, const std::string &what,
         const std::string &text)
{
    if (!parsed)
        reject(what, "bad value \"" + text + "\"");
    return *parsed;
}

/**
 * Finish a controller parsed from @p line: @p model and the
 * single-host QoS fill what the line leaves out, and a qos= line
 * replaces the QoS block outright.
 */
void
finishController(controllers::ControllerSpec &spec,
                 const std::string &line,
                 const core::LinearModelConfig &model,
                 const std::optional<core::QosParams> &qos)
{
    applyIocostDefaults(spec, line, model, defaultQos());
    if (qos)
        spec.iocost.qos = *qos;
}

const char *const kKeys[] = {"device",    "controller", "model",
                             "qos",       "faults",     "seconds",
                             "seed",      "pagecache",  "dirty_ratio",
                             "job"};

} // namespace

JobSpec
JobSpec::parse(const std::string &text, const std::string &what)
{
    JobSpec job;
    size_t pos = text.find(':');
    job.name = text.substr(0, pos);
    if (job.name.empty() ||
        job.name.find_first_of("; \t\r\n") != std::string::npos)
        reject(what, "bad job name \"" + job.name + "\"");
    while (pos != std::string::npos) {
        const size_t next = text.find(':', pos + 1);
        const std::string part = text.substr(
            pos + 1, next == std::string::npos ? next : next - pos - 1);
        pos = next;
        const size_t eq = part.find('=');
        if (eq == std::string::npos)
            reject(what, "bad job attribute \"" + part + "\"");
        const std::string key = part.substr(0, eq);
        const std::string value = part.substr(eq + 1);
        const std::string name = what + ": " + key;
        auto count = [&](uint64_t max) {
            return sim::parseCount(value, name, max);
        };
        if (key == "weight") {
            job.weight = static_cast<uint32_t>(count(10000));
            if (job.weight == 0)
                reject(name, "must be in [1, 10000]");
        } else if (key == "depth") {
            job.fio.iodepth = static_cast<unsigned>(count(UINT_MAX));
        } else if (key == "bs") {
            job.fio.blockSize = static_cast<uint32_t>(count(UINT32_MAX));
            if (job.fio.blockSize == 0)
                reject(name, "must be > 0");
        } else if (key == "rw") {
            if (value != "read" && value != "write" && value != "mixed")
                reject(name, "\"" + value + "\" is not read|write|mixed");
            job.fio.readFraction =
                value == "read" ? 1.0 : value == "write" ? 0.0 : 0.5;
        } else if (key == "pattern") {
            if (value != "rand" && value != "seq")
                reject(name, "\"" + value + "\" is not rand|seq");
            job.fio.randomFraction = value == "seq" ? 0.0 : 1.0;
        } else if (key == "rate") {
            job.fio.arrival = workload::Arrival::Rate;
            job.fio.ratePerSec = sim::parseNumber(value, name);
            if (job.fio.ratePerSec <= 0.0)
                reject(name, "must be > 0");
        } else if (key == "buffered") {
            if (value != "0" && value != "1")
                reject(name, "must be 0 or 1");
            job.buffered = value == "1";
        } else if (key == "fsync") {
            job.fsyncEvery = static_cast<uint32_t>(count(UINT32_MAX));
        } else if (key == "span") {
            job.spanBytes = count(UINT64_MAX);
        } else {
            reject(what, "unknown job key \"" + key + "\"");
        }
    }
    // Only rate jobs ignore depth; any other job with nothing in
    // flight would never issue an IO.
    if (job.fio.iodepth == 0 &&
        (job.buffered || job.fio.arrival != workload::Arrival::Rate))
        reject(what + ": depth", "must be > 0 unless the job has a rate");
    return job;
}

void
applyIocostDefaults(controllers::ControllerSpec &spec,
                    const std::string &line,
                    const core::LinearModelConfig &model,
                    const core::QosParams &qos)
{
    if (spec.name != "iocost")
        return;
    const std::string payload = controllers::iocostPayload(line);
    if (!core::parseModelLine(payload))
        spec.iocost.model = core::CostModel::fromConfig(model);
    if (!core::parseQosLine(payload)) {
        // A parsed line's period is nonzero only when it set one.
        const sim::Time period = spec.iocost.qos.period;
        spec.iocost.qos = qos;
        if (period != 0)
            spec.iocost.qos.period = period;
    }
}

void
applyPageCache(HostOptions &opts, uint64_t bytes, double dirtyRatioPct)
{
    if (bytes == 0)
        return;
    opts.enablePageCache = true;
    opts.pageCacheConfig.cacheBytes = bytes;
    if (dirtyRatioPct > 0.0) {
        opts.pageCacheConfig.dirtyRatio = dirtyRatioPct / 100.0;
        opts.pageCacheConfig.dirtyBackgroundRatio =
            dirtyRatioPct / 200.0;
    }
}

double
ScenarioHost::iops(size_t j) const
{
    return direct[j] ? direct[j]->iops() : buffered[j]->iops();
}

const stat::Histogram &
ScenarioHost::latency(size_t j) const
{
    return direct[j] ? direct[j]->latency() : buffered[j]->latency();
}

void
ScenarioHost::resetStats()
{
    host->resetStats();
    for (size_t j = 0; j < jobs.size(); ++j) {
        if (direct[j])
            direct[j]->resetStats();
        else
            buffered[j]->resetStats();
    }
}

sim::Time
ScenarioSpec::duration() const
{
    return static_cast<sim::Time>(seconds *
                                  static_cast<double>(sim::kSec));
}

void
ScenarioSpec::forEachEntry(
    const std::string &text,
    const std::function<void(const std::string &,
                             const std::string &)> &fn)
{
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t sep = text.find_first_of(";\n", pos);
        if (sep == std::string::npos)
            sep = text.size();
        const std::string entry = trim(text.substr(pos, sep - pos));
        pos = sep + 1;
        if (entry.empty())
            continue;
        const size_t eq = entry.find('=');
        if (eq == std::string::npos)
            reject("scenario",
                   "expected key=value, got \"" + entry + "\"");
        fn(trim(entry.substr(0, eq)), trim(entry.substr(eq + 1)));
    }
}

ScenarioSpec
ScenarioSpec::parse(const std::string &text)
{
    ScenarioSpec spec;
    forEachEntry(text, [&spec](const std::string &key,
                               const std::string &value) {
        if (!spec.set(key, value, "scenario: " + key))
            reject("scenario", "unknown key \"" + key + "\"");
    });
    spec.normalize();
    return spec;
}

std::string
ScenarioSpec::flagKey(const std::string &flag)
{
    if (flag.rfind("--", 0) != 0)
        return "";
    std::string key = flag.substr(2);
    for (char &c : key) {
        if (c == '-')
            c = '_';
    }
    for (const char *known : kKeys) {
        if (key == known)
            return key;
    }
    return "";
}

bool
ScenarioSpec::set(const std::string &key, const std::string &value,
                  const std::string &what)
{
    if (key == "device") {
        device = value;
    } else if (key == "controller") {
        (void)required(controllers::parseControllerSpec(value), what,
                       value);
        controller = value;
    } else if (key == "model") {
        if (!value.empty())
            (void)required(core::parseModelLine(value), what, value);
        model = value;
    } else if (key == "qos") {
        if (!value.empty())
            (void)required(core::parseQosLine(value), what, value);
        qos = value;
    } else if (key == "faults") {
        try {
            (void)sim::FaultPlan::parse(value);
        } catch (const std::invalid_argument &err) {
            reject(what, err.what());
        }
        faults = value;
    } else if (key == "seconds") {
        seconds = sim::parseNumber(value, what);
    } else if (key == "seed") {
        seed = sim::parseCount(value, what);
    } else if (key == "pagecache") {
        pagecacheBytes = sim::parseBytes(value, what);
    } else if (key == "dirty_ratio") {
        dirtyRatioPct = sim::parseNumber(value, what);
    } else if (key == "job") {
        (void)JobSpec::parse(value, what);
        jobs.push_back(value);
    } else {
        return false;
    }
    return true;
}

void
ScenarioSpec::normalize()
{
    // 2^63 ns is the first duration a sim::Time cannot hold.
    if (!(seconds > 0.0 && seconds * 1e9 < 0x1p63))
        reject("scenario",
               "seconds must be > 0 and fit the simulated clock");
    if (!(dirtyRatioPct >= 0.0 && dirtyRatioPct <= 100.0))
        reject("scenario", "dirty_ratio must be in [0, 100]");
    if (jobs.empty())
        jobs.assign(std::begin(kDefaultJobs), std::end(kDefaultJobs));
}

void
ScenarioSpec::defaultPageCache()
{
    if (pagecacheBytes == 0 && hasBufferedJobs())
        pagecacheBytes = 512ull << 20;
}

bool
ScenarioSpec::hasBufferedJobs() const
{
    for (const JobSpec &job : jobSpecs()) {
        if (job.buffered)
            return true;
    }
    return false;
}

std::optional<core::QosParams>
ScenarioSpec::qosOverride() const
{
    if (qos.empty())
        return std::nullopt;
    return required(core::parseQosLine(qos), "scenario: qos", qos);
}

std::string
ScenarioSpec::canonical() const
{
    std::string out;
    out += "device=" + device;
    out += ";controller=" + controller;
    out += ";model=" + model;
    out += ";qos=" + qos;
    out += ";faults=" + faults;
    char buf[64];
    std::snprintf(buf, sizeof buf, ";seconds=%.17g", seconds);
    out += buf;
    std::snprintf(buf, sizeof buf, ";seed=%" PRIu64, seed);
    out += buf;
    // Emitted only when set: pre-pagecache canonical strings (and
    // the what-if cache hashes derived from them) must not change.
    if (pagecacheBytes != 0) {
        std::snprintf(buf, sizeof buf, ";pagecache=%" PRIu64,
                      pagecacheBytes);
        out += buf;
    }
    if (dirtyRatioPct != 0.0) {
        std::snprintf(buf, sizeof buf, ";dirty_ratio=%.17g",
                      dirtyRatioPct);
        out += buf;
    }
    for (const std::string &job : jobs)
        out += ";job=" + job;
    return out;
}

core::LinearModelConfig
ScenarioSpec::costModel() const
{
    if (!model.empty())
        return required(core::parseModelLine(model), "scenario: model",
                        model);
    core::LinearModelConfig cost;
    sim::Simulator probe(seed);
    (void)makeNamedDevice(device, probe, &cost);
    return cost;
}

std::vector<JobSpec>
ScenarioSpec::jobSpecs() const
{
    std::vector<JobSpec> out;
    for (size_t j = 0; j < jobs.size(); ++j) {
        out.push_back(JobSpec::parse(jobs[j], "scenario: job"));
        out.back().fio.offsetBase = j << 40;
    }
    return out;
}

ScenarioHost
ScenarioSpec::buildHost(sim::Simulator &sim, HostOptions opts) const
{
    ScenarioHost out;
    // Profiling is skipped when model= names the model anyway.
    auto dev = makeNamedDevice(device, sim,
                               model.empty() ? &out.model : nullptr);
    if (!model.empty())
        out.model = costModel();
    out.controller =
        required(controllers::parseControllerSpec(controller),
                 "scenario: controller", controller);
    finishController(out.controller, controller, out.model,
                     qosOverride());
    opts.controller = out.controller;
    opts.faults = faults;
    applyPageCache(opts, pagecacheBytes, dirtyRatioPct);
    out.host = std::make_unique<Host>(sim, std::move(dev), opts);
    Host &host = *out.host;

    out.jobs = jobSpecs();
    out.direct.resize(out.jobs.size());
    out.buffered.resize(out.jobs.size());
    for (size_t j = 0; j < out.jobs.size(); ++j) {
        const JobSpec &job = out.jobs[j];
        out.cgroups.push_back(host.addWorkload(job.name, job.weight));
        if (!job.buffered) {
            out.direct[j] = std::make_unique<workload::FioWorkload>(
                sim, host.layer(), out.cgroups[j], job.fio);
            host.track(*out.direct[j]);
            out.direct[j]->start();
            continue;
        }
        if (pagecacheBytes == 0)
            reject("scenario", "buffered job \"" + job.name +
                                   "\" requires pagecache=");
        workload::BufferedConfig bc;
        bc.name = job.name;
        bc.readFraction = job.fio.readFraction;
        bc.randomFraction = job.fio.randomFraction;
        bc.blockSize = job.fio.blockSize;
        bc.offsetBase = job.fio.offsetBase;
        bc.fsyncEvery = job.fsyncEvery;
        bc.depth = job.fio.iodepth;
        if (job.spanBytes != 0)
            bc.spanBytes = job.spanBytes;
        out.buffered[j] = std::make_unique<workload::BufferedWorkload>(
            sim, host.pageCache(), out.cgroups[j], bc);
        host.track(*out.buffered[j]);
        out.buffered[j]->start();
    }
    return out;
}

SweepOptions
ScenarioSpec::sweepOptions(std::vector<std::string> specs) const
{
    if (specs.empty())
        reject("scenario", "empty sweep config list");
    if (hasBufferedJobs())
        reject("scenario", "buffered jobs are not supported under a "
                           "sweep (the shadow-lane engine has no page "
                           "cache)");
    // Resolve once up front: the runner applies tweakSpec while
    // parsing specs, before any device exists.
    const core::LinearModelConfig cost = costModel();
    const std::optional<core::QosParams> qos_override = qosOverride();

    SweepOptions opts;
    opts.specs = std::move(specs);
    opts.faults = faults;
    opts.makeDevice = [name = device](sim::Simulator &s) {
        return makeNamedDevice(name, s);
    };
    // Keyed on the spec line only, so results cannot depend on how
    // configs are partitioned across workers.
    opts.tweakSpec = [cost, qos_override](
                         const std::string &line,
                         controllers::ControllerSpec &spec) {
        finishController(spec, line, cost, qos_override);
    };
    return opts;
}

std::vector<std::unique_ptr<workload::FioWorkload>>
ScenarioSpec::startJobs(sim::Simulator &sim, SweepRunner &runner) const
{
    std::vector<std::unique_ptr<workload::FioWorkload>> running;
    for (const JobSpec &job : jobSpecs()) {
        const auto cg = runner.addWorkload(job.name, job.weight);
        running.push_back(std::make_unique<workload::FioWorkload>(
            sim, runner.layer(), cg, job.fio));
        running.back()->start();
    }
    return running;
}

} // namespace iocost::host
