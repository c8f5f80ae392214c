/**
 * @file
 * Interfaces between the runner's parts: run options, the report every
 * workload fills in, the figure-cell grid shared by the sweep and the
 * serve workload, and the traced per-layer timings.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "oracle.hh"
#include "params.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serverBinary;  //!< The serving daemon to start.
    Clock::time_point started;  //!< Entry to main().
    std::string outDir;        //!< Logs and span files go here.
};

/** What one run measured and checked. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    std::vector<std::string> problems;  //!< Why correct is false.
    std::vector<std::string> lines;     //!< Human-readable summary.
    std::vector<std::string> detail;    //!< "key": value JSON members.

    void fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

/** Outcome of timing a list of figure cells. */
struct GridResult
{
    std::size_t cells = 0;
    int reps = 0;
    double timedSeconds = 0.0;
    /** Cells over the sum of every cell's fastest time. */
    double cellsPerSecond = 0.0;
    std::vector<double> passRates;    //!< Cells per second of each pass.
    std::vector<double> cellSeconds;  //!< Per cell, its fastest time.
    std::vector<double> setupSeconds; //!< Per pass: emptying the caches.
    double predErrorPct = 0.0;
    double energyNorm = 0.0;
    double missPct = 0.0;
    std::uint64_t failedCells = 0;
};

/**
 * Figure cells (each an Experiment running kCellSchemes) timed in
 * passes. A pass runs every cell in a closed loop from an empty
 * JobCache and shared-stream registry and checks each against
 * referenceStream(). Every pass does the same work, and host
 * interference only ever slows a cell down, so each cell's fastest
 * time is the steadiest estimate of the program's own speed; passes
 * spread over a run meet more of the host's quiet spells. Spans go to
 * the tracer when non-null.
 */
class FigureGrid
{
  public:
    /** Builds the untimed references of @p cells. */
    FigureGrid(std::vector<SweepCell> cells, Tracer *tracer);

    /** One timed pass; a cell that differs counts as failed. */
    void pass(Report &report);

    int reps() const { return out.reps; }
    double timedSeconds() const { return out.timedSeconds; }

    /** The passes so far; fails @p report if any cell ever differed. */
    GridResult result(Report &report) const;

  private:
    std::vector<SweepCell> cells;
    Tracer *tracer;
    std::vector<ReferenceStream> refs;
    std::vector<std::size_t> groupOf, configOf;  //!< Per cell, in refs.
    GridResult out;
};

/** Inputs of the traced per-layer timings for one stream. */
struct LayerStream
{
    const StreamTwin *twin = nullptr;
    std::vector<JobInput> jobs;  //!< The jobs the workload sent, in order.
};

/** What the traced run knows from the end-to-end part. */
struct LayerContext
{
    double batchOccupancy = 1.0;  //!< Jobs per prepare() chunk.
    double clientP50Us = 0.0;     //!< 0 when there is no served path.
};

/** Time calls into rtl, core, sim and serve on @p streams and fill
 *  the per-layer metrics they own. */
void timeLayers(const std::vector<LayerStream> &streams,
                const LayerContext &context, Tracer &tracer,
                Report &report);

Report runServe(const ServeParams &params, const RunOptions &options);
Report runSweep(const RunOptions &options);

/** The machine descriptor JSON object. */
std::string machineJson();

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
