/**
 * @file
 * Shared experiment driver: everything a bench binary needs to
 * reproduce one paper figure for one benchmark — accelerator,
 * workload, trained predictor, operating points, engine, prepared job
 * streams — built once and queried per scheme.
 */

#ifndef PREDVFS_SIM_EXPERIMENT_HH
#define PREDVFS_SIM_EXPERIMENT_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.hh"
#include "core/pid_controller.hh"
#include "sim/engine.hh"
#include "workload/suite.hh"

namespace predvfs {
namespace sim {

/** Implementation technology of the accelerator (paper 4.3 vs 4.4). */
enum class Platform { Asic, Fpga };

/** The DVFS schemes compared across the paper's figures. */
enum class Scheme
{
    Baseline,              //!< Constant nominal voltage/frequency.
    Pid,                   //!< Reactive control-theory controller.
    Table,                 //!< Worst-case-per-size-class lookup.
    Prediction,            //!< The paper's slice-based controller.
    PredictionNoOverhead,  //!< Figure 13: overheads removed.
    PredictionBoost,       //!< Figure 14: 1.08 V boost allowed.
    Oracle,                //!< Figure 13: perfect knowledge.
    GuardedPrediction,     //!< Prediction + watchdog degradation.
};

/** @return the scheme label used in the paper's figures. */
const char *schemeName(Scheme scheme);

/**
 * Adjust an accelerator's energy calibration for the implementation
 * platform (FPGA fabric burns more switched capacitance and leakage
 * than the 65 nm ASIC). Shared by Experiment and the serving layer's
 * stream builder so both construct identical engines.
 */
power::EnergyParams platformEnergyParams(power::EnergyParams params,
                                         Platform platform);

/** Configuration of one experiment instance. */
struct ExperimentOptions
{
    Platform platform = Platform::Asic;
    double deadlineSeconds = 1.0 / 60.0;
    double switchTimeSeconds = 100e-6;
    std::uint64_t seed = workload::defaultSeed;
    rtl::SliceOptions sliceOptions = {};
    double predictionMargin = 0.05;  //!< Paper: 5% for prediction.
    double pidMargin = 0.10;         //!< Paper: 10% for PID.
    core::FlowConfig flowConfig = {};//!< sliceOptions is overwritten.

    /**
     * Share the prepared stream (workload, trained predictor, job
     * records) across Experiment instances whose cells differ only in
     * deadline, switch time, margins, platform, or controller — the
     * shape of every grid sweep. Records are a pure function of
     * (design, workload seed, flow config), so sharing is
     * bit-identical to rebuilding; disable to force a private stream
     * (e.g. when timing cold construction). A custom featureFilter
     * disables sharing automatically (a std::function has no content
     * identity to key on).
     */
    bool shareStreams = true;
};

/**
 * The cell-invariant parts of one experiment: the workload, the
 * trained predictor, and the prepared job streams. Immutable once
 * built; shared across every Experiment whose options agree on the
 * stream key (benchmark, seed, slice options, flow tunables).
 */
struct PreparedStream
{
    workload::BenchmarkWorkload work;
    core::FlowResult flow;
    std::vector<core::PreparedJob> trainJobs;
    std::vector<core::PreparedJob> testJobs;
    PrepareStats trainPrepare;  //!< How the train stream was answered.
    PrepareStats testPrepare;   //!< How the test stream was answered.
};

/** Drop every entry of the process-global prepared-stream registry
 *  (benchmarks use this to time cold vs warm construction). */
void clearSharedStreams();

/**
 * One benchmark fully set up for evaluation. Construction runs the
 * offline flow (training simulation + model fit + slicing) and
 * prepares both job streams; runScheme() replays controllers.
 */
class Experiment
{
  public:
    Experiment(const std::string &benchmark,
               ExperimentOptions options = {});

    Experiment(const Experiment &) = delete;
    Experiment &operator=(const Experiment &) = delete;

    /** @name Component access */
    /// @{
    const accel::Accelerator &accelerator() const { return *accelPtr; }
    const workload::BenchmarkWorkload &workload() const
    {
        return stream->work;
    }
    const core::FlowReport &flowReport() const
    {
        return stream->flow.report;
    }
    const core::SlicePredictor &predictor() const
    {
        return *stream->flow.predictor;
    }
    const power::VfModel &vfModel() const { return *vf; }
    const power::OperatingPointTable &table() const { return *opTable; }
    const SimulationEngine &engine() const { return *simEngine; }
    const std::vector<core::PreparedJob> &testPrepared() const
    {
        return stream->testJobs;
    }
    const std::vector<core::PreparedJob> &trainPrepared() const
    {
        return stream->trainJobs;
    }
    /** Cache/simulation counters of this stream's preparation (zeros
     *  when another Experiment built the shared stream first). */
    const PrepareStats &testPrepareStats() const
    {
        return stream->testPrepare;
    }
    const ExperimentOptions &options() const { return opts; }
    /// @}

    /**
     * Run one scheme over the test stream. Results are cached; pass a
     * trace pointer to force a (re-)run with tracing.
     */
    RunMetrics runScheme(Scheme scheme,
                         std::vector<JobTrace> *trace = nullptr);

    /** Scheme energy / baseline energy (both on the test stream). */
    double normalizedEnergy(Scheme scheme);

    /** @name Predictor overhead summary (Figures 12/17) */
    /// @{
    /** Slice area (incl. instrumentation) over accelerator area. */
    double sliceAreaFraction() const;

    /** FPGA resource fraction: like area, discounted for the share of
     *  the datapath that maps to DSP/BRAM hard blocks. */
    double sliceResourceFraction() const;

    /** Mean slice runtime over the job deadline. */
    double meanSliceTimeFraction() const;

    /** Mean slice energy over mean job energy (both at nominal). */
    double meanSliceEnergyFraction() const;
    /// @}

    /** Tuned PID configuration (lazily computed from training data). */
    const core::PidConfig &pidConfig();

  private:
    std::unique_ptr<core::DvfsController> makeController(Scheme scheme);

    ExperimentOptions opts;
    std::shared_ptr<const accel::Accelerator> accelPtr;
    std::shared_ptr<const PreparedStream> stream;
    std::unique_ptr<power::VfModel> vf;
    std::unique_ptr<power::OperatingPointTable> opTable;
    std::unique_ptr<SimulationEngine> simEngine;
    std::map<Scheme, RunMetrics> cache;
    std::optional<core::PidConfig> tunedPid;
};

} // namespace sim
} // namespace predvfs

#endif // PREDVFS_SIM_EXPERIMENT_HH
