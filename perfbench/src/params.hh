/**
 * @file
 * Every fixed parameter of the benchmark: workload names, server
 * options, latency limits, rate ladders, grid shape, repetition counts
 * and the metric names the runner prints. BENCHMARK.json repeats the
 * server options and latency limits in each workload's "why" line;
 * run.py checks that the two agree on every run.
 */

#ifndef PERFBENCH_PARAMS_HH
#define PERFBENCH_PARAMS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perfbench {

/** One frame deadline of the paper's 60 fps target, in ms. */
constexpr double kFrameDeadlineMs = 1000.0 / 60.0;

/** A served workload: which streams, which traffic, which limits. */
struct ServeParams
{
    std::string_view name;
    std::array<std::string_view, 2> benchmarks;
    double latencyLimitMs = 0.0;   //!< p99 limit of a passing rung.
    /** Rate of the reference inputs, below the knee even when the
     *  host runs slow: the latency metrics are read there. */
    double referenceRps = 0.0;
    /** Server command-line options; fixed so that no environment or
     *  default drift changes the program under test. */
    std::string_view serverArgs;
};

/**
 * A serve run is kRounds rounds, each on a freshly started server. The
 * reference inputs are replayed every round, in kReferenceShare of
 * --seconds over all rounds; the rest goes to goodput rungs, kGoodputRates
 * of them a round, kGoodputStep apart; and each round times
 * kFigurePassesPerRound passes over the figure cells.
 */
constexpr int kRounds = 8;
constexpr double kReferenceShare = 0.5;
constexpr int kGoodputRates = 5;
constexpr double kGoodputStep = 1.25;
constexpr int kFigurePassesPerRound = 2;

/** The first round's ladder: from kLadderStart times the reference
 *  rate up by kLadderStep (at most kMaxLadderRungs rungs) until a rung
 *  fails, then kBisectRungs bisections. The reference rate is far below
 *  the knee, so the ladder skips the rates in between. */
constexpr double kLadderStep = 2.0;
constexpr double kLadderStart = 4.0;
constexpr int kMaxLadderRungs = 6;
constexpr int kBisectRungs = 2;

/** Each arrival goes to the workload's second stream (cjpeg) with this
 *  probability. */
constexpr double kSecondStreamShare = 0.5;

constexpr ServeParams kServeUnique{
    "serve_unique", {"h264", "cjpeg"}, kFrameDeadlineMs, 300.0,
    "--shards 1 --workers 1"};

/** The sweep grid: every benchmark x kGridSeeds x deadline x switch. */
constexpr int kGridSeeds = 3;
constexpr std::array<double, 3> kDeadlineFactors{0.8, 1.0, 1.2};
constexpr std::array<double, 2> kSwitchMicros{100.0, 250.0};

/** The sweep times at least kGridReps passes over its cells, and
 *  goes on until --seconds have been timed. */
constexpr int kGridReps = 7;

/** End-to-end metric names, in BENCHMARK.json order. */
constexpr std::array<std::string_view, 7> kEndToEndMetrics{
    "setup_s",        "peak_rss_mib", "p50_ms",  "cells_per_s",
    "pred_error_pct", "energy_norm",  "miss_pct"};

/** Per-layer metric names, in BENCHMARK.json order. */
constexpr std::array<std::string_view, 33> kPerLayerMetrics{
    "rtl.run_ns_per_item",       "rtl.slice_ns_per_item",
    "rtl.batch_ns_per_item",     "rtl.batch_mispredict_rate",
    "rtl.batch_lane_occupancy",  "rtl.verify_ms",
    "rtl.speculate_ms",          "core.train_s",
    "rtl.train_sim_s",           "core.replay_ns_per_job",
    "sim.prepare_cold_us_per_job", "sim.prepare_warm_us_per_job",
    "sim.cache_lookup_hit_ns",   "sim.cache_lookup_miss_ns",
    "sim.cache_insert_ns",       "sim.cache_hit_rate",
    "sim.cache_evictions",       "sim.experiment_build_s",
    "serve.encode_ns",           "serve.decode_ns",
    "serve.server_p50_us",       "serve.server_p99_us",
    "serve.batch_occupancy",     "serve.peak_queue_depth",
    "serve.hits",                "serve.coalesced",
    "serve.simulated",           "serve.busy",
    "serve.expired",             "serve.client_retries",
    "serve.reconnects",          "serve.unattributed_us",
    "gen.late_p99_us"};

} // namespace perfbench

#endif // PERFBENCH_PARAMS_HH
