/**
 * @file
 * Shared pieces of the repository benchmark: options, the result
 * record, host-time helpers, and the outside-in tracer.
 *
 * The benchmark drives the simulator only through its public API
 * and times layers from outside: a decorator around the installed
 * IoController, a decorator around the BlockDevice, a counting
 * telemetry sink, and spans around the benchmark's own calls into
 * mm::PageCache. Nothing inside the program is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Stop after set-up and report only its cost. */
    bool setupOnly = false;
    /** Self-test size: short fixed prefixes, few checks. */
    bool tiny = false;
};

/** Monotonic host time in nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** One correctness check: ops it covered and ops that failed it. */
struct Check
{
    std::string name;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/**
 * Everything one workload process reports. run.py turns it into the
 * benchmark's result line.
 */
struct Result
{
    /** Ops run; an op counts as failed when it fails any check. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Op-latency samples behind op_p50_ms/op_p90_ms. */
    uint64_t opSamples = 0;
    double setupS = 0;
    /** End-to-end (untraced) or per-layer (traced) metrics. */
    std::vector<Metric> metrics;
    /** Simulated outcomes; must repeat exactly for one seed. */
    std::vector<Metric> sim;
    std::vector<Check> checks;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void
    addSim(std::string name, double value, std::string unit)
    {
        sim.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Median-style quantile of host-time samples (ns) in ms. */
double quantileMs(std::vector<int64_t> samples, double q);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** CPUs this process may run on, in order. */
std::vector<int> allowedCpus();

/** Pin every current thread of this process to @p cpus. */
void pinThreads(const std::vector<int> &cpus);

/**
 * One stretch of a measured loop, run on one fixed set of CPUs. The
 * loops rotate through the CPUs window by window: on a shared host
 * the contention a neighbour puts on one CPU comes and goes, and
 * rotation lets every run see every CPU.
 */
struct Window
{
    double work = 0;
    int64_t ns = 0;
    std::vector<int64_t> opNs;
    /** Work in units of equal host cost, for ranking windows by
     *  speed when ops differ in cost (what-if queries); else work. */
    double effort = 0;
};

/**
 * Add the end-to-end metrics every workload reports from its op
 * loop: work_per_s, op_p50_ms, op_p90_ms, peak_rss_mb (@p rssMb),
 * setup_s. Host-time metrics come from the fastest tenth of the
 * windows (at least five) by effort per second: on a shared host the
 * machine switches between a fast and a much slower state, for
 * stretches from under a second to minutes, and the fastest tenth is
 * the part of a run that sees the fast state in nearly every run.
 * Both sides of any comparison are measured alike.
 */
void addHostTimeMetrics(Result &r, std::vector<Window> windows,
                        double rssMb);

/**
 * How a traced run's layer self times add up to its wall time.
 * wallNs is the host time the traced work took, selfSumNs the sum of
 * the layers' self times over it, and tracedOverUntraced the same
 * work's traced over untraced host time.
 */
struct Reconciliation
{
    double wallNs = 0;
    double selfSumNs = 0;
    double tracedOverUntraced = 1;
};

/** Add trace.wall_ms, trace.self_sum_ms, trace.residual_pct and
 *  trace_overhead_pct. */
void addReconciliation(Result &r, const Reconciliation &rec);

/** Names of the layers the tracer attributes time to. */
enum Layer : unsigned
{
    kCore,   ///< IoController interface (submit/complete/error/delay)
    kDevice, ///< BlockDevice::submit
    kMm,     ///< mm::PageCache write/read/fsync
    kLayerCount,
};

/**
 * Span accounting with self time. A span's self time is its
 * duration minus the time of spans nested inside it, so a
 * controller submit that dispatches straight into the device is
 * split between core and device.
 */
class Tracer
{
  public:
    struct LayerStat
    {
        uint64_t calls = 0;
        int64_t selfNs = 0;
    };

    Tracer() { stack_.reserve(16); }

    void
    enter()
    {
        stack_.push_back({nowNs(), 0});
    }

    void
    exit(Layer layer)
    {
        const Frame f = stack_.back();
        stack_.pop_back();
        const int64_t dur = nowNs() - f.start;
        layers_[layer].calls += 1;
        layers_[layer].selfNs += dur - f.childNs;
        if (stack_.empty())
            topLevelNs_ += dur;
        else
            stack_.back().childNs += dur;
    }

    const LayerStat &layer(Layer l) const { return layers_[l]; }

    /** Time inside outermost spans (all layers, inclusive). */
    int64_t topLevelNs() const { return topLevelNs_; }

  private:
    struct Frame
    {
        int64_t start;
        int64_t childNs;
    };
    std::vector<Frame> stack_;
    std::array<LayerStat, kLayerCount> layers_{};
    int64_t topLevelNs_ = 0;
};

/** RAII span; a null tracer makes it free. */
class Span
{
  public:
    Span(Tracer *t, Layer layer) : t_(t), layer_(layer)
    {
        if (t_)
            t_->enter();
    }
    ~Span()
    {
        if (t_)
            t_->exit(layer_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
    Layer layer_;
};

Result runDirectMixed(const Options &opt);
Result runBufferedWriteback(const Options &opt);
Result runWhatifBranch(const Options &opt);
Result runFleetMigration(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
