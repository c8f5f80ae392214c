/**
 * @file
 * Output oracles. A served reply must equal, bit for bit, the record
 * the in-process SimulationEngine::prepare computes for the same job
 * on an identically trained stream; a sweep cell's RunMetrics must
 * equal a reference replayed from a private (unshared) stream prepared
 * on a cleared cache.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/flow.hh"
#include "serve/protocol.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "workload/suite.hh"

namespace perfbench {

/**
 * In-process twin of one server stream: built exactly as
 * PredictionServer::registerBenchmark builds it (default
 * ExperimentOptions: ASIC tables, default-seed training stream).
 */
struct StreamTwin
{
    std::string name;
    std::shared_ptr<const predvfs::accel::Accelerator> accel;
    std::unique_ptr<predvfs::power::VfModel> vf;
    std::unique_ptr<predvfs::power::OperatingPointTable> table;
    std::unique_ptr<predvfs::sim::SimulationEngine> engine;
    predvfs::workload::BenchmarkWorkload work;
    predvfs::core::FlowResult flow;
    std::uint64_t streamKey = 0;

    const predvfs::core::SlicePredictor *predictor() const
    {
        return flow.predictor.get();
    }
};

std::unique_ptr<StreamTwin> buildStreamTwin(const std::string &benchmark);

/** Bitwise equality of a reply's values and a prepared record. */
bool replyMatches(const predvfs::serve::PredictReplyMsg &reply,
                  const predvfs::core::PreparedJob &record);

/** Bitwise equality of every RunMetrics field. */
bool metricsEqual(const predvfs::sim::RunMetrics &a,
                  const predvfs::sim::RunMetrics &b);

/** The schemes every figure cell runs. */
constexpr std::array<predvfs::sim::Scheme, 5> kCellSchemes{
    predvfs::sim::Scheme::Baseline, predvfs::sim::Scheme::Pid,
    predvfs::sim::Scheme::Prediction, predvfs::sim::Scheme::Oracle,
    predvfs::sim::Scheme::GuardedPrediction};

constexpr std::size_t kBaselineCell = 0;
constexpr std::size_t kPredictionCell = 2;
static_assert(kCellSchemes[kBaselineCell] == predvfs::sim::Scheme::Baseline);
static_assert(kCellSchemes[kPredictionCell] ==
              predvfs::sim::Scheme::Prediction);

using CellMetrics = std::array<predvfs::sim::RunMetrics, kCellSchemes.size()>;

/**
 * Reference metrics of every (deadline, switch time) cell of one
 * (benchmark, seed) stream, computed from one private Experiment
 * (shareStreams = false) whose records are replayed under freshly
 * built controllers for each cell. Also yields the stream's Fig. 10
 * prediction error. Call on a cleared JobCache.
 */
struct ReferenceStream
{
    std::vector<CellMetrics> cells;  //!< Indexed deadline-major.
    double meanAbsErrorFraction = 0.0;
};

ReferenceStream
referenceStream(const std::string &benchmark, std::uint64_t seed,
                const std::vector<std::pair<double, double>> &cells);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
