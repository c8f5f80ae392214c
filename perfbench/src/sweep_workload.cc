/**
 * @file
 * The sweep workload: the Fig. 10-15 grid run in-process as a closed
 * loop of sim::Experiment cells, and the figure-cell runner the serve
 * workload also uses.
 */

#include <algorithm>
#include <limits>
#include <sstream>

#include <sys/resource.h>

#include "accel/registry.hh"
#include "runner.hh"
#include "sim/job_cache.hh"

namespace perfbench {

using namespace predvfs;

namespace {

std::pair<double, double>
cellConfig(const SweepCell &c)
{
    return {c.deadlineFactor / 60.0, c.switchMicros * 1e-6};
}

void
clearCaches()
{
    sim::JobCache::global().clear();
    sim::clearSharedStreams();
}

} // namespace

FigureGrid::FigureGrid(std::vector<SweepCell> cells_in, Tracer *tracer_in)
    : cells(std::move(cells_in)), tracer(tracer_in)
{
    out.cells = cells.size();

    // Untimed references: one private stream per (benchmark, seed),
    // each prepared on a cleared cache, replayed for every cell config.
    std::vector<std::pair<std::string, std::uint64_t>> groups;
    std::vector<std::pair<double, double>> configs;
    for (const double d : kDeadlineFactors)
        for (const double s : kSwitchMicros)
            configs.push_back(cellConfig({"", 0, d, s}));
    const auto group_of = [&](const SweepCell &c) {
        for (std::size_t g = 0; g < groups.size(); ++g)
            if (groups[g].first == c.benchmark &&
                groups[g].second == c.gridSeed)
                return g;
        groups.emplace_back(c.benchmark, c.gridSeed);
        sim::JobCache::global().clear();
        refs.push_back(referenceStream(c.benchmark, c.gridSeed, configs));
        return groups.size() - 1;
    };
    const auto config_of = [&](const SweepCell &c) {
        const auto want = cellConfig(c);
        for (std::size_t k = 0; k < configs.size(); ++k)
            if (configs[k] == want)
                return k;
        return configs.size();
    };
    for (const SweepCell &c : cells) {
        groupOf.push_back(group_of(c));
        configOf.push_back(config_of(c));
    }

    // Figure metrics from the references (the timed cells must equal
    // them): Fig. 10 error, Fig. 11 energy at 1.0x / 100 us, and the
    // Prediction scheme's misses pooled over every cell.
    double err = 0.0, energy = 0.0;
    int energy_cells = 0;
    double misses = 0.0, jobs = 0.0;
    const std::size_t base_config = config_of({"", 0, 1.0, 100.0});
    for (const ReferenceStream &ref : refs) {
        err += ref.meanAbsErrorFraction;
        const CellMetrics &m = ref.cells[base_config];
        energy += m[kPredictionCell].totalEnergyJoules() /
            m[kBaselineCell].totalEnergyJoules();
        ++energy_cells;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellMetrics &m = refs[groupOf[i]].cells[configOf[i]];
        misses += static_cast<double>(m[kPredictionCell].misses);
        jobs += static_cast<double>(m[kPredictionCell].jobs);
    }
    out.predErrorPct = 100.0 * err / static_cast<double>(refs.size());
    out.energyNorm = energy / energy_cells;
    out.missPct = 100.0 * misses / std::max(1.0, jobs);
    out.cellSeconds.assign(cells.size(),
                           std::numeric_limits<double>::infinity());
    // What the references left in the caches is not the first pass's
    // set-up.
    clearCaches();
}

void
FigureGrid::pass(Report &report)
{
    const Clock::time_point s0 = Clock::now();
    clearCaches();
    std::vector<CellMetrics> got(cells.size());
    const Clock::time_point t0 = Clock::now();
    out.setupSeconds.push_back(seconds(s0, t0));
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &c = cells[i];
        const Clock::time_point c0 = Clock::now();
        const std::uint64_t cell_span = tracer ? tracer->begin("sim.cell") : 0;
        sim::ExperimentOptions opts;
        opts.seed = c.gridSeed;
        std::tie(opts.deadlineSeconds, opts.switchTimeSeconds) = cellConfig(c);
        std::uint64_t span =
            tracer ? tracer->begin("sim.experiment", cell_span) : 0;
        sim::Experiment exp(c.benchmark, opts);
        if (tracer) {
            tracer->end(span, 1);
            span = tracer->begin("sim.cell_replay", cell_span);
        }
        for (std::size_t s = 0; s < kCellSchemes.size(); ++s)
            got[i][s] = exp.runScheme(kCellSchemes[s]);
        if (tracer) {
            tracer->end(span, kCellSchemes.size() * exp.testPrepared().size());
            tracer->end(cell_span, 1);
        }
        out.cellSeconds[i] =
            std::min(out.cellSeconds[i], seconds(c0, Clock::now()));
    }
    const double elapsed = seconds(t0, Clock::now());
    out.timedSeconds += elapsed;
    out.passRates.push_back(static_cast<double>(cells.size()) / elapsed);
    ++out.reps;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellMetrics &want = refs[groupOf[i]].cells[configOf[i]];
        bool same = true;
        for (std::size_t s = 0; s < kCellSchemes.size(); ++s)
            same = same && metricsEqual(got[i][s], want[s]);
        report.attempted += 1;
        if (!same) {
            report.failed += 1;
            out.failedCells += 1;
        }
    }
}

GridResult
FigureGrid::result(Report &report) const
{
    GridResult r = out;
    if (r.failedCells > 0)
        report.fail(std::to_string(r.failedCells) +
                    " figure cells differ from the unshared reference");
    double fastest = 0.0;
    for (const double s : r.cellSeconds)
        fastest += s;
    r.cellsPerSecond = static_cast<double>(r.cells) / fastest;
    return r;
}

Report
runSweep(const RunOptions &options)
{
    Report report;
    Tracer tracer;

    FigureGrid figures(sweepCells(options.seed),
                       options.trace ? &tracer : nullptr);
    const Clock::time_point grid_start = Clock::now();
    do
        figures.pass(report);
    while (figures.reps() < kGridReps ||
           figures.timedSeconds() < options.seconds);
    GridResult grid = figures.result(report);
    struct rusage usage = {};

    // Set-up is what a pass does before its first timed cell: return
    // the JobCache and the shared-stream registry to empty. The first
    // pass also pays the runner's start, from main() to the grid; the
    // grid's untimed oracle references are not set-up.
    std::vector<double> &setups = grid.setupSeconds;
    setups.front() += seconds(options.started, grid_start);
    const double setup = median(setups);
    ::getrusage(RUSAGE_SELF, &usage);

    std::vector<double> cell_ms;
    for (const double s : grid.cellSeconds)
        cell_ms.push_back(s * 1000.0);
    report.endToEnd["setup_s"] = setup;
    report.endToEnd["peak_rss_mib"] =
        static_cast<double>(usage.ru_maxrss) / 1024.0;
    // A closed loop has no offered rate: its latency is the time of one
    // cell.
    report.endToEnd["p50_ms"] = quantile(cell_ms, 0.50);
    report.endToEnd["cells_per_s"] = grid.cellsPerSecond;
    report.endToEnd["pred_error_pct"] = grid.predErrorPct;
    report.endToEnd["energy_norm"] = grid.energyNorm;
    report.endToEnd["miss_pct"] = grid.missPct;

    std::ostringstream os;
    os << "sweep: " << grid.cells << " cells ("
       << accel::benchmarkNames().size() << " benchmarks x " << kGridSeeds
       << " seeds x " << kDeadlineFactors.size() << " deadlines x "
       << kSwitchMicros.size() << " switch times) at "
       << grid.cellsPerSecond << " cells/s; " << grid.failedCells
       << " cells differ from the reference";
    report.lines.push_back(os.str());
    report.detail.push_back("\"grid_cells\": " + std::to_string(grid.cells) +
                            ", \"grid_reps\": " + std::to_string(grid.reps));
    report.detail.push_back("\"pass_rates\": " + jsonNumbers(grid.passRates));
    report.detail.push_back("\"p99_ms\": " +
                            jsonNumber(quantile(cell_ms, 0.99)));
    report.detail.push_back("\"setup_samples_s\": " + jsonNumbers(setups));

    if (options.trace) {
        // No server on this workload: its serve-side counters read 0.
        for (const char *name :
             {"serve.server_p50_us", "serve.server_p99_us",
              "serve.batch_occupancy", "serve.peak_queue_depth",
              "serve.hits", "serve.coalesced", "serve.simulated",
              "serve.busy", "serve.expired", "serve.client_retries",
              "serve.reconnects", "gen.late_p99_us"})
            report.perLayer[name] = 0.0;

        std::vector<std::unique_ptr<StreamTwin>> twins;
        std::vector<LayerStream> streams;
        for (const std::string &bench : accel::benchmarkNames()) {
            twins.push_back(buildStreamTwin(bench));
            streams.push_back({twins.back().get(), twins.back()->work.test});
        }
        LayerContext context;
        context.batchOccupancy = 64;  // prepare() gets whole streams.
        timeLayers(streams, context, tracer, report);

        const double timed_cells =
            static_cast<double>(tracer.totalWork("sim.cell"));
        const double cell_total = tracer.totalSeconds("sim.cell");
        const double build = tracer.totalSeconds("sim.experiment");
        const double replay = tracer.totalSeconds("sim.cell_replay");
        std::ostringstream cs;
        cs << "per cell: experiment build " << build / timed_cells * 1e3
           << " ms, replay " << replay / timed_cells * 1e3
           << " ms, unattributed "
           << (cell_total - build - replay) / timed_cells * 1e3 << " ms";
        report.lines.push_back(cs.str());
        const std::string path = options.outDir + "/sweep-seed" +
            std::to_string(options.seed) + ".spans.ndjson";
        if (tracer.writeNdjson(path))
            report.lines.push_back("spans written to " + path);
    }
    return report;
}

} // namespace perfbench
