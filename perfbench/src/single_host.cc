/**
 * @file
 * The two single-host workloads.
 *
 * direct_mixed: one host on a new-gen SSD under iocost with the
 * profiled cost model, running a weight-protected rate-limited
 * random reader, a saturating random writer at lower weight and a
 * saturating sequential reader. The direct pipeline (workload ->
 * core -> blk -> device -> stat -> sim) does nearly all the work.
 *
 * buffered_writeback: the same host with the page cache on and a
 * dirty wall the dirtier hits, in the chaos_writeback_burst shape: a
 * buffered sequential dirtier, an fsync-storm cgroup doing small
 * buffered reads and writes, and the protected direct reader.
 * mm::PageCache and iocost's forced-issue/debt path for writeback do
 * most of the work, beside direct reads.
 *
 * One op is one second of simulated time (a hundred iocost planning
 * periods). Simulated outcomes are taken over a fixed prefix of
 * slices, so they do not depend on how many slices the host manages
 * in the measured time.
 */

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench.hh"
#include "controllers/factory.hh"
#include "core/cost_model.hh"
#include "device/device_profiles.hh"
#include "device/ssd_model.hh"
#include "host/host.hh"
#include "layers.hh"
#include "mm/page_cache.hh"
#include "profile/device_profiler.hh"
#include "workload/fio_workload.hh"

namespace perfbench {
namespace {

using namespace iocost;

/** iocost planning period. */
constexpr sim::Time kPeriod = 10 * sim::kMsec;

/** One op: a hundred planning periods of simulated time. */
constexpr sim::Time kSlice = 100 * kPeriod;

/** Ops before simulated statistics start (device burst buffer
 *  drained, page cache filled to its dirty wall). */
unsigned
warmupSlices(const Options &o)
{
    return o.tiny ? 1 : 2;
}

/** Ops over which simulated outcomes and counts are taken. */
unsigned
prefixSlices(const Options &o)
{
    return o.tiny ? 4 : 200;
}

/** Buffered generator shape (see BufferedGen). */
struct BufferedSpec
{
    double readFraction = 0;
    bool random = false;
    uint32_t blockSize = 0;
    uint64_t spanBytes = 0;
    uint64_t offsetBase = 0;
    uint32_t fsyncEvery = 0;
    sim::Time thinkTime = 0;
    unsigned depth = 1;
};

/**
 * Closed-loop buffered IO generator. It issues the same operation
 * mix as workload::BufferedWorkload, but from the benchmark's own
 * code, so the calls into mm::PageCache can be timed from outside.
 */
class BufferedGen
{
  public:
    BufferedGen(sim::Simulator &sim, mm::PageCache &cache,
                cgroup::CgroupId cg, const BufferedSpec &spec,
                Tracer *tracer)
        : sim_(sim), cache_(cache), cg_(cg), spec_(spec),
          rng_(sim.forkRng()), t_(tracer)
    {
        cache_.addSpan(cg_, spec_.spanBytes);
    }

    BufferedGen(const BufferedGen &) = delete;
    BufferedGen &operator=(const BufferedGen &) = delete;

    void
    start()
    {
        running_ = true;
        for (unsigned i = 0; i < spec_.depth; ++i)
            issue();
    }

    void stop() { running_ = false; }

    /** Calls made into the page cache. */
    uint64_t ops() const { return ops_; }

  private:
    void
    issue()
    {
        if (!running_)
            return;
        ++ops_;
        auto done = [this] { onDone(); };
        Span s(t_, kMm);
        if (spec_.fsyncEvery > 0 &&
            writesSinceFsync_ >= spec_.fsyncEvery) {
            writesSinceFsync_ = 0;
            cache_.fsync(cg_, done);
            return;
        }
        const bool read = rng_.uniform() < spec_.readFraction;
        uint64_t offset = spec_.offsetBase + cursor_;
        if (spec_.random) {
            offset = spec_.offsetBase +
                     rng_.below(spec_.spanBytes / spec_.blockSize) *
                         spec_.blockSize;
        } else {
            cursor_ = (cursor_ + spec_.blockSize) % spec_.spanBytes;
        }
        if (read) {
            cache_.read(cg_, offset, spec_.blockSize, done);
        } else {
            ++writesSinceFsync_;
            cache_.write(cg_, offset, spec_.blockSize, done);
        }
    }

    void
    onDone()
    {
        if (running_)
            sim_.after(spec_.thinkTime, [this] { issue(); });
    }

    sim::Simulator &sim_;
    mm::PageCache &cache_;
    cgroup::CgroupId cg_;
    BufferedSpec spec_;
    sim::Rng rng_;
    Tracer *t_;
    bool running_ = false;
    uint64_t ops_ = 0;
    uint64_t cursor_ = 0;
    uint32_t writesSinceFsync_ = 0;
};

/** Simulated outcome and layer counts over the fixed prefix. */
struct Outcome
{
    int64_t protectedP99Ns = 0;
    uint64_t bytes = 0;
    uint64_t completions = 0;
    uint64_t retries = 0;
    uint64_t wbBios = 0;
    uint64_t records = 0;
    uint64_t mmOps = 0;
    uint64_t readHitBytes = 0;
    uint64_t readMissBytes = 0;
    uint64_t dirtyStalls = 0;
    uint64_t wbBytes = 0;
    uint64_t coreCalls = 0;
    uint64_t deviceAttempts = 0;
    uint64_t deviceAccepted = 0;

    /** Fields that tracing must leave untouched. */
    bool
    sameSimulation(const Outcome &o) const
    {
        return protectedP99Ns == o.protectedP99Ns && bytes == o.bytes &&
               completions == o.completions && retries == o.retries &&
               wbBios == o.wbBios && records == o.records &&
               mmOps == o.mmOps && readHitBytes == o.readHitBytes &&
               dirtyStalls == o.dirtyStalls && wbBytes == o.wbBytes;
    }
};

/** One assembled host plus its workloads. */
class SingleHost
{
  public:
    SingleHost(bool buffered, uint64_t seed,
               const core::LinearModelConfig &model, Tracer *tracer)
        : sim_(seed), tracer_(tracer)
    {
        auto ssd =
            std::make_unique<device::SsdModel>(sim_, device::newGenSsd());
        device::SsdModel *inner = ssd.get();
        std::unique_ptr<blk::BlockDevice> dev = std::move(ssd);
        if (tracer) {
            auto timed = std::make_unique<TimedDevice>(std::move(dev),
                                                       *tracer);
            timedDevice_ = timed.get();
            dev = std::move(timed);
        }

        host::HostOptions o;
        // The benchmark installs the controller itself (below), the
        // same way in both runs, so the traced run can wrap it.
        o.controller = "none";
        o.telemetrySink = &sink_;
        if (buffered) {
            o.enablePageCache = true;
            o.pageCacheConfig.cacheBytes = 128ull << 20;
            o.pageCacheConfig.dirtyRatio = 0.04;
            o.pageCacheConfig.dirtyBackgroundRatio = 0.02;
        }
        host_ = std::make_unique<host::Host>(sim_, std::move(dev), o);
        inner->setTelemetry(&host_->layer().telemetry());

        controllers::ControllerSpec spec = "iocost";
        spec.iocost.model = core::CostModel::fromConfig(model);
        spec.iocost.qos.readLatQuantile = 0.95;
        spec.iocost.qos.readLatTarget = 300 * sim::kUsec;
        spec.iocost.qos.writeLatTarget = 5 * sim::kMsec;
        spec.iocost.qos.period = kPeriod;
        spec.iocost.qos.vrateMin = 0.1;
        spec.iocost.qos.vrateMax = 1.0;
        std::unique_ptr<blk::IoController> ctl =
            controllers::makeController(spec);
        if (tracer) {
            auto timed =
                std::make_unique<TimedController>(std::move(ctl), *tracer);
            timedController_ = timed.get();
            ctl = std::move(timed);
        }
        host_->layer().setController(std::move(ctl));

        cgs_.push_back(cgroup::kRoot);
        const auto web = addCgroup("web", 200);
        workload::FioConfig reader;
        reader.name = "web";
        reader.arrival = workload::Arrival::Rate;
        reader.ratePerSec = 3000;
        reader.iodepth = 16;
        addFio(web, reader);

        if (!buffered) {
            workload::FioConfig writer;
            writer.name = "batch";
            writer.readFraction = 0.0;
            writer.iodepth = 32;
            writer.offsetBase = 1ull << 40;
            addFio(addCgroup("batch", 100), writer);

            workload::FioConfig scan;
            scan.name = "scan";
            scan.randomFraction = 0.0;
            scan.blockSize = 128 * 1024;
            scan.iodepth = 4;
            scan.offsetBase = 2ull << 40;
            addFio(addCgroup("scan", 100), scan);
        } else {
            BufferedSpec dirtier;
            dirtier.blockSize = 1 << 20;
            dirtier.spanBytes = 1ull << 30;
            dirtier.offsetBase = 1ull << 40;
            dirtier.thinkTime = 50 * sim::kUsec;
            dirtier.depth = 8;
            addBuffered(addCgroup("dirtier", 100), dirtier);

            BufferedSpec storm;
            storm.readFraction = 0.5;
            storm.random = true;
            storm.blockSize = 16 * 1024;
            storm.spanBytes = 64ull << 20;
            storm.offsetBase = 2ull << 40;
            storm.fsyncEvery = 4;
            storm.thinkTime = 200 * sim::kUsec;
            storm.depth = 2;
            addBuffered(addCgroup("fsync", 100), storm);
        }
        for (auto &f : fio_)
            f->start();
        for (auto &b : buffered_)
            b->start();
    }

    /** Run one op: the next slice of simulated time. */
    void runSlice() { sim_.runUntil(sim_.now() + kSlice); }

    /** Warm-up ends: the protected reader's statistics start. */
    void
    startMeasure()
    {
        fio_.front()->resetStats();
        bytesAtStart_ = deviceBytes();
    }

    Outcome
    capture() const
    {
        Outcome out;
        blk::BlockLayer &layer = host_->layer();
        out.protectedP99Ns = fio_.front()->latency().quantile(0.99);
        out.bytes = deviceBytes() - bytesAtStart_;
        out.completions = layer.completed();
        out.retries = layer.retries();
        for (cgroup::CgroupId cg : cgs_)
            out.wbBios += layer.stats(cg).wbWrites;
        out.records = sink_.records;
        for (const auto &b : buffered_)
            out.mmOps += b->ops();
        if (host_->hasPageCache()) {
            for (cgroup::CgroupId cg : cgs_) {
                const mm::CacheCgroupStats &s =
                    host_->pageCache().stats(cg);
                out.readHitBytes += s.readHitBytes;
                out.readMissBytes += s.readMissBytes;
                out.dirtyStalls += s.throttleStalls;
                out.wbBytes += s.wbIssuedBytes;
            }
        }
        if (tracer_) {
            out.coreCalls = tracer_->layer(kCore).calls;
            out.deviceAttempts = timedDevice_->attempts;
            out.deviceAccepted = timedDevice_->accepted;
        }
        return out;
    }

    uint64_t completed() { return host_->layer().completed(); }

    /**
     * Per-op invariants: the block layer never completes more bios
     * than were submitted, and page-cache bytes are conserved for
     * every cgroup (dirtied = cleaned + dirty + under writeback).
     */
    bool
    checkOp()
    {
        blk::BlockLayer &layer = host_->layer();
        bool ok = layer.completed() <= layer.submitted() &&
                  layer.completed() >= lastCompleted_;
        lastCompleted_ = layer.completed();
        if (host_->hasPageCache()) {
            for (cgroup::CgroupId cg : cgs_) {
                const mm::CacheCgroupStats &s =
                    host_->pageCache().stats(cg);
                ok = ok && s.bufferedWriteBytes ==
                               s.cleanedBytes + s.dirty + s.writeback;
            }
        }
        return ok;
    }

    /**
     * Stop every generator and run until the host is quiet: every
     * submitted bio must then have completed exactly once (and, when
     * traced, reached the controller's onComplete exactly once).
     */
    bool
    drain()
    {
        for (auto &f : fio_)
            f->stop();
        for (auto &b : buffered_)
            b->stop();
        blk::BlockLayer &layer = host_->layer();
        auto quiet = [&] {
            return layer.submitted() == layer.completed() &&
                   (!host_->hasPageCache() ||
                    host_->pageCache().pendingOps() == 0);
        };
        for (int step = 0; step < 600 && !quiet(); ++step)
            sim_.runUntil(sim_.now() + 100 * sim::kMsec);
        bool ok = quiet() && layer.failedBios() == 0;
        if (timedController_)
            ok = ok && timedController_->completions == layer.completed();
        return ok && checkOp();
    }

  private:
    cgroup::CgroupId
    addCgroup(const char *name, uint32_t weight)
    {
        const auto cg = host_->addWorkload(name, weight);
        cgs_.push_back(cg);
        return cg;
    }

    void
    addFio(cgroup::CgroupId cg, const workload::FioConfig &cfg)
    {
        fio_.push_back(std::make_unique<workload::FioWorkload>(
            sim_, host_->layer(), cg, cfg));
    }

    void
    addBuffered(cgroup::CgroupId cg, const BufferedSpec &spec)
    {
        buffered_.push_back(std::make_unique<BufferedGen>(
            sim_, host_->pageCache(), cg, spec, tracer_));
    }

    uint64_t
    deviceBytes() const
    {
        uint64_t b = 0;
        for (cgroup::CgroupId cg : cgs_) {
            const blk::CgroupIoStats &s = host_->layer().stats(cg);
            b += s.readBytes + s.writeBytes;
        }
        return b;
    }

    sim::Simulator sim_;
    Tracer *tracer_;
    CountingSink sink_;
    TimedDevice *timedDevice_ = nullptr;
    TimedController *timedController_ = nullptr;
    std::unique_ptr<host::Host> host_;
    std::vector<cgroup::CgroupId> cgs_;
    std::vector<std::unique_ptr<workload::FioWorkload>> fio_;
    std::vector<std::unique_ptr<BufferedGen>> buffered_;
    uint64_t bytesAtStart_ = 0;
    uint64_t lastCompleted_ = 0;
};

/** ns per record through the public stat::Telemetry::emit path. */
double
telemetryNsPerRecord()
{
    CountingSink sink;
    stat::Telemetry tel;
    tel.setSink(&sink);
    constexpr int kRecords = 200000;
    const int64_t t0 = nowNs();
    for (int i = 0; i < kRecords; ++i)
        tel.emit(i, "iocost", 3, "vrate_pct", 0.5 * i);
    return static_cast<double>(nowNs() - t0) / kRecords;
}

void
addSimOutcome(Result &r, const Outcome &o, unsigned measuredSlices)
{
    const double simSeconds =
        sim::toSeconds(kSlice) * static_cast<double>(measuredSlices);
    r.addSim("sim_p99_us", static_cast<double>(o.protectedP99Ns) / 1e3,
             "sim_us");
    r.addSim("sim_mbps", static_cast<double>(o.bytes) / simSeconds / 1e6,
             "MB/s");
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

Result
runSingleHost(const Options &opt, bool buffered)
{
    Result r;
    const unsigned warmup = warmupSlices(opt);
    const unsigned prefix = prefixSlices(opt);

    // Set-up: device profiling (cold: the profile cache is per
    // process) and host construction.
    const int64_t setupStart = nowNs();
    const core::LinearModelConfig model =
        profile::DeviceProfiler::profileSsd(device::newGenSsd()).model;
    const int64_t profileNs = nowNs() - setupStart;
    Tracer tracer;
    auto plain = std::make_unique<SingleHost>(buffered, opt.seed, model,
                                              nullptr);
    std::unique_ptr<SingleHost> traced;
    if (opt.trace) {
        traced = std::make_unique<SingleHost>(buffered, opt.seed, model,
                                              &tracer);
    }
    r.setupS = static_cast<double>(nowNs() - setupStart) / 1e9;
    if (opt.setupOnly)
        return r;

    // The traced run alternates slices between an untraced and a
    // traced copy of the same host (order flipped every op), so the
    // tracing overhead is a same-process ratio. Windows last about
    // 100 ms (some 20 ops), each on the next allowed CPU: short
    // enough that the fastest ones rarely straddle a slow stretch.
    constexpr int64_t kWindowNs = 100 * 1000 * 1000;
    const std::vector<int> cpus = allowedCpus();
    std::vector<Window> windows(1);
    pinThreads({cpus[0]});
    int64_t windowStart = nowNs();
    uint64_t workAtWindow = plain->completed();
    int64_t plainNs = 0, tracedNs = 0, tracedRunNs = 0;
    Outcome plainOut, tracedOut;
    uint64_t failedOps = 0;
    double rssAtPrefix = 0;
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(opt.seconds * 1e9);
    unsigned ops = 0;
    while (ops < prefix || nowNs() < deadline) {
        bool ok = true;
        for (int k = 0; k < (traced ? 2 : 1); ++k) {
            const bool useTraced = traced && (k == 0) == (ops % 2 == 0);
            SingleHost &h = useTraced ? *traced : *plain;
            const int64_t a = nowNs();
            h.runSlice();
            const int64_t b = nowNs();
            ok = h.checkOp() && ok;
            const int64_t c = nowNs();
            if (useTraced) {
                tracedRunNs += b - a;
                tracedNs += c - a;
            } else {
                plainNs += c - a;
                windows.back().opNs.push_back(b - a);
            }
        }
        failedOps += !ok;
        ++ops;
        if (const int64_t now = nowNs(); now - windowStart >= kWindowNs) {
            windows.back().work =
                static_cast<double>(plain->completed() - workAtWindow);
            windows.back().ns = now - windowStart;
            pinThreads({cpus[windows.size() % cpus.size()]});
            windows.emplace_back();
            windowStart = nowNs();
            workAtWindow = plain->completed();
        }
        if (ops == warmup) {
            plain->startMeasure();
            if (traced)
                traced->startMeasure();
        }
        if (ops == prefix) {
            // Simulator memory grows with simulated time, so peak RSS
            // is read at the end of the fixed prefix: the same
            // simulated work on every host, however fast.
            rssAtPrefix = peakRssMb();
            plainOut = plain->capture();
            if (traced)
                tracedOut = traced->capture();
        }
    }
    // Close the last window; drop it if it is a short remainder.
    windows.back().work =
        static_cast<double>(plain->completed() - workAtWindow);
    windows.back().ns = nowNs() - windowStart;
    if (windows.size() > 1 && windows.back().ns < kWindowNs / 2)
        windows.pop_back();
    pinThreads(cpus);
    const Tracer loopTrace = tracer; // drain below is not measured

    bool drained = plain->drain();
    if (traced)
        drained = traced->drain() && drained;
    // A failed drain leaves every op's bios unaccounted for.
    r.attempted = ops;
    r.failed = drained ? failedOps : ops;
    r.checks.push_back({"op_invariants", ops, failedOps});
    r.checks.push_back({"drain_exactly_once", 1, drained ? 0u : 1u});
    if (traced) {
        const bool same = plainOut.sameSimulation(tracedOut);
        r.checks.push_back({"trace_identical", 1, same ? 0u : 1u});
        if (!same)
            r.failed = ops;
    }
    addSimOutcome(r, plainOut, prefix - warmup);

    if (!opt.trace) {
        // Work is completed bios, writeback bios included; in the
        // untraced run the loop holds nothing but the plain host.
        addHostTimeMetrics(r, std::move(windows), rssAtPrefix);
        for (const Metric &m : r.sim)
            r.metrics.push_back(m);
        return r;
    }

    const Tracer::LayerStat &core = loopTrace.layer(kCore);
    const Tracer::LayerStat &dev = loopTrace.layer(kDevice);
    const Tracer::LayerStat &mmL = loopTrace.layer(kMm);
    const int64_t simSelf = tracedRunNs - loopTrace.topLevelNs();
    const Outcome &o = tracedOut;
    r.add("profile.ms", static_cast<double>(profileNs) / 1e6, "ms");
    r.add("core.calls", static_cast<double>(o.coreCalls), "count");
    r.add("core.ns_per_call",
          ratio(static_cast<double>(core.selfNs),
                static_cast<double>(core.calls)),
          "ns");
    r.add("device.submits", static_cast<double>(o.deviceAttempts),
          "count");
    r.add("device.accept_ratio",
          ratio(static_cast<double>(o.deviceAccepted),
                static_cast<double>(o.deviceAttempts)),
          "ratio");
    r.add("device.ns_per_submit",
          ratio(static_cast<double>(dev.selfNs),
                static_cast<double>(dev.calls)),
          "ns");
    r.add("stat.records", static_cast<double>(o.records), "count");
    r.add("stat.records_per_bio",
          ratio(static_cast<double>(o.records),
                static_cast<double>(o.completions)),
          "ratio");
    r.add("stat.ns_per_record", telemetryNsPerRecord(), "ns");
    r.add("sim.self_ms", static_cast<double>(simSelf) / 1e6, "ms");
    r.add("blk.completions", static_cast<double>(o.completions), "count");
    r.add("blk.retries", static_cast<double>(o.retries), "count");
    r.add("blk.wb_bios", static_cast<double>(o.wbBios), "count");
    r.add("mm.ops", static_cast<double>(o.mmOps), "count");
    r.add("mm.ns_per_op",
          ratio(static_cast<double>(mmL.selfNs),
                static_cast<double>(mmL.calls)),
          "ns");
    r.add("mm.read_hit_ratio",
          ratio(static_cast<double>(o.readHitBytes),
                static_cast<double>(o.readHitBytes + o.readMissBytes)),
          "ratio");
    r.add("mm.dirty_stalls", static_cast<double>(o.dirtyStalls), "count");
    r.add("mm.wb_bytes", static_cast<double>(o.wbBytes), "bytes");

    // Reconciliation: the traced host's loop time against its layer
    // self times. The residual is the benchmark's per-op checks.
    const double selfSum = static_cast<double>(
        core.selfNs + dev.selfNs + mmL.selfNs + simSelf);
    const Reconciliation rec{static_cast<double>(tracedNs), selfSum,
                             ratio(static_cast<double>(tracedNs),
                                   static_cast<double>(plainNs))};
    addReconciliation(r, rec);
    return r;
}

} // namespace

Result
runDirectMixed(const Options &opt)
{
    return runSingleHost(opt, false);
}

Result
runBufferedWriteback(const Options &opt)
{
    return runSingleHost(opt, true);
}

} // namespace perfbench
