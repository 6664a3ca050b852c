/**
 * @file
 * Outside-in probes for the single-host workloads: decorators that
 * sit on the public IoController and BlockDevice interfaces, and the
 * benchmark-owned telemetry sink. None of them changes what the
 * simulation does; the traced run checks that its simulated
 * outcomes equal the untraced run's exactly.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <memory>

#include "bench.hh"
#include "blk/block_device.hh"
#include "blk/io_controller.hh"
#include "stat/telemetry.hh"

namespace perfbench {

/** Counts records; the telemetry bus stays on at negligible cost. */
class CountingSink : public iocost::stat::TelemetrySink
{
  public:
    void emit(const iocost::stat::Record &) override { ++records; }
    uint64_t records = 0;
};

/** Times every call through the IoController interface. */
class TimedController : public iocost::blk::IoController
{
  public:
    TimedController(std::unique_ptr<iocost::blk::IoController> inner,
                    Tracer &tracer)
        : inner_(std::move(inner)), t_(&tracer)
    {}

    iocost::blk::ControllerCaps caps() const override
    {
        return inner_->caps();
    }

    void
    onSubmit(iocost::blk::BioPtr bio) override
    {
        Span s(t_, kCore);
        inner_->onSubmit(std::move(bio));
    }

    void
    onComplete(const iocost::blk::Bio &bio,
               const iocost::blk::CompletionInfo &info) override
    {
        ++completions;
        Span s(t_, kCore);
        inner_->onComplete(bio, info);
    }

    void
    onError(const iocost::blk::Bio &bio,
            const iocost::blk::CompletionInfo &info) override
    {
        Span s(t_, kCore);
        inner_->onError(bio, info);
    }

    iocost::sim::Time
    userspaceDelay(iocost::cgroup::CgroupId cg) override
    {
        Span s(t_, kCore);
        return inner_->userspaceDelay(cg);
    }

    iocost::sim::Time issueCpuCost() const override
    {
        return inner_->issueCpuCost();
    }

    void
    attach(iocost::blk::BlockLayer &layer) override
    {
        IoController::attach(layer);
        inner_->attach(layer);
    }

    void saveState(iocost::sim::StateWriter &w) const override
    {
        inner_->saveState(w);
    }
    void loadState(iocost::sim::StateReader &r) override
    {
        inner_->loadState(r);
    }

    /** onComplete calls: one per accepted bio when all is well. */
    uint64_t completions = 0;

  private:
    std::unique_ptr<iocost::blk::IoController> inner_;
    Tracer *t_;
};

/**
 * Times BlockDevice::submit and counts accepted submits. The block
 * layer installs its completion callback and telemetry on this
 * wrapper; the wrapper relays completions from the inner model, and
 * the caller hands the layer's telemetry to the inner model.
 */
class TimedDevice : public iocost::blk::BlockDevice
{
  public:
    TimedDevice(std::unique_ptr<iocost::blk::BlockDevice> inner,
                Tracer &tracer)
        : inner_(std::move(inner)), t_(&tracer)
    {
        inner_->setCompletionFn(
            [this](iocost::blk::BioPtr bio, iocost::sim::Time lat) {
                finish(std::move(bio), lat);
            });
    }

    bool
    submit(iocost::blk::BioPtr &bio) override
    {
        Span s(t_, kDevice);
        ++attempts;
        const bool ok = inner_->submit(bio);
        accepted += ok;
        return ok;
    }

    uint32_t queueDepth() const override
    {
        return inner_->queueDepth();
    }
    uint32_t inFlight() const override { return inner_->inFlight(); }
    std::string modelName() const override
    {
        return inner_->modelName();
    }
    void saveState(iocost::sim::StateWriter &w) const override
    {
        inner_->saveState(w);
    }
    void loadState(iocost::sim::StateReader &r) override
    {
        inner_->loadState(r);
    }

    uint64_t attempts = 0;
    uint64_t accepted = 0;

  private:
    std::unique_ptr<iocost::blk::BlockDevice> inner_;
    Tracer *t_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
