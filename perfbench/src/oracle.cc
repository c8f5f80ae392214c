#include "oracle.hh"

#include <cmath>
#include <cstring>

#include "accel/registry.hh"
#include "core/guarded_controller.hh"
#include "core/oracle_controller.hh"
#include "core/pid_controller.hh"
#include "core/predictive_controller.hh"

namespace perfbench {

using namespace predvfs;

std::unique_ptr<StreamTwin>
buildStreamTwin(const std::string &benchmark)
{
    const sim::ExperimentOptions opts;
    auto twin = std::make_unique<StreamTwin>();
    twin->name = benchmark;
    twin->accel = accel::makeAccelerator(benchmark);
    const double f0 = twin->accel->nominalFrequencyHz();
    twin->vf = std::make_unique<power::VfModel>(power::VfModel::asic65nm(f0));
    twin->table = std::make_unique<power::OperatingPointTable>(
        power::OperatingPointTable::asic(*twin->vf, /*with_boost=*/true));
    sim::EngineConfig config;
    config.deadlineSeconds = opts.deadlineSeconds;
    config.switchTimeSeconds = opts.switchTimeSeconds;
    twin->engine = std::make_unique<sim::SimulationEngine>(
        *twin->accel, *twin->table, config,
        sim::platformEnergyParams(twin->accel->energyParams(),
                                  opts.platform));
    twin->work = workload::makeWorkload(*twin->accel, opts.seed);
    core::FlowConfig flow_config = opts.flowConfig;
    flow_config.sliceOptions = opts.sliceOptions;
    twin->flow = core::buildPredictor(twin->accel->design(),
                                      twin->work.train, flow_config);
    twin->streamKey = twin->engine->streamKey(twin->predictor());
    return twin;
}

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

bool
replyMatches(const serve::PredictReplyMsg &reply,
             const core::PreparedJob &record)
{
    return reply.cycles == record.cycles &&
        sameBits(reply.energyUnits, record.energyUnits) &&
        reply.sliceCycles == record.sliceCycles &&
        sameBits(reply.sliceEnergyUnits, record.sliceEnergyUnits) &&
        sameBits(reply.predictedCycles, record.predictedCycles);
}

bool
metricsEqual(const sim::RunMetrics &a, const sim::RunMetrics &b)
{
    return a.jobs == b.jobs && a.misses == b.misses &&
        a.switches == b.switches &&
        sameBits(a.execEnergyJoules, b.execEnergyJoules) &&
        sameBits(a.overheadEnergyJoules, b.overheadEnergyJoules) &&
        sameBits(a.execSeconds, b.execSeconds) &&
        sameBits(a.overheadSeconds, b.overheadSeconds);
}

ReferenceStream
referenceStream(const std::string &benchmark, std::uint64_t seed,
                const std::vector<std::pair<double, double>> &cells)
{
    sim::ExperimentOptions opts;
    opts.seed = seed;
    opts.shareStreams = false;
    sim::Experiment exp(benchmark, opts);

    ReferenceStream ref;
    double err = 0.0;
    for (const core::PreparedJob &job : exp.testPrepared())
        err += std::fabs(job.predictedCycles -
                         static_cast<double>(job.cycles)) /
            static_cast<double>(job.cycles);
    ref.meanAbsErrorFraction =
        err / static_cast<double>(exp.testPrepared().size());

    const accel::Accelerator &accel = exp.accelerator();
    const double f0 = accel.nominalFrequencyHz();
    const core::PidConfig pid = exp.pidConfig();
    for (const auto &[deadline_s, switch_s] : cells) {
        sim::EngineConfig config;
        config.deadlineSeconds = deadline_s;
        config.switchTimeSeconds = switch_s;
        const sim::SimulationEngine engine(
            accel, exp.table(), config,
            sim::platformEnergyParams(accel.energyParams(), opts.platform));
        core::DvfsModelConfig dvfs;
        dvfs.deadlineSeconds = deadline_s;
        dvfs.switchTimeSeconds = switch_s;
        dvfs.marginFraction = opts.predictionMargin;

        CellMetrics metrics;
        for (std::size_t s = 0; s < kCellSchemes.size(); ++s) {
            std::unique_ptr<core::DvfsController> controller;
            switch (kCellSchemes[s]) {
              case sim::Scheme::Baseline:
                controller = std::make_unique<core::ConstantController>(
                    exp.table().nominalIndex());
                break;
              case sim::Scheme::Pid:
                controller = std::make_unique<core::PidController>(
                    exp.table(), f0, dvfs, pid);
                break;
              case sim::Scheme::Prediction:
                controller = std::make_unique<core::PredictiveController>(
                    exp.table(), f0, dvfs);
                break;
              case sim::Scheme::Oracle:
                controller = std::make_unique<core::OracleController>(
                    exp.table(), f0, dvfs);
                break;
              default:
                controller =
                    std::make_unique<core::GuardedPredictiveController>(
                        exp.table(), f0, dvfs, pid);
                break;
            }
            metrics[s] = engine.run(*controller, exp.testPrepared());
        }
        ref.cells.push_back(metrics);
    }
    return ref;
}

} // namespace perfbench
