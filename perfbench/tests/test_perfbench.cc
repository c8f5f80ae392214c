/**
 * @file
 * The benchmark's own tests: seeded inputs are reproducible, distinct
 * traffic never repeats a job, the oracles reject a single flipped bit,
 * and the metric names the runner prints are the ones BENCHMARK.json
 * declares.
 */

#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "accel/registry.hh"
#include "runner.hh"
#include "sim/job_cache.hh"
#include "util/thread_pool.hh"

using namespace perfbench;
using namespace predvfs;

namespace {

std::vector<std::uint64_t>
hashes(const std::vector<JobInput> &jobs)
{
    std::vector<std::uint64_t> out;
    for (const JobInput &job : jobs)
        out.push_back(jobHash(job));
    return out;
}

} // namespace

TEST(Inputs, SameSeedSameInputsOtherSeedOtherInputs)
{
    EXPECT_EQ(poissonSchedule(7, 800.0, 1.0), poissonSchedule(7, 800.0, 1.0));
    EXPECT_NE(poissonSchedule(7, 800.0, 1.0), poissonSchedule(8, 800.0, 1.0));
    EXPECT_EQ(streamMix(7, 500, 0.5), streamMix(7, 500, 0.5));
    EXPECT_NE(streamMix(7, 500, 0.5), streamMix(8, 500, 0.5));

    const auto h264 = accel::makeAccelerator("h264");
    util::ThreadPool pool(2);
    UniqueJobSource a(h264, 11), b(h264, 11), c(h264, 12);
    const auto ha = hashes(a.take(60, &pool));
    EXPECT_EQ(ha, hashes(b.take(60)));
    EXPECT_NE(ha, hashes(c.take(60, &pool)));

    const auto cell_key = [](const std::vector<SweepCell> &cells) {
        std::vector<std::string> out;
        for (const SweepCell &c : cells)
            out.push_back(c.benchmark + std::to_string(c.gridSeed) +
                          std::to_string(c.deadlineFactor) +
                          std::to_string(c.switchMicros));
        return out;
    };
    EXPECT_EQ(cell_key(sweepCells(1)), cell_key(sweepCells(1)));
    EXPECT_NE(cell_key(sweepCells(1)), cell_key(sweepCells(2)));
    EXPECT_EQ(sweepCells(1).size(),
              accel::benchmarkNames().size() * kGridSeeds *
                  kDeadlineFactors.size() * kSwitchMicros.size());
}

TEST(Inputs, DistinctTrafficNeverRepeatsAJob)
{
    // cjpeg's test stream is 100 jobs per seed, so 260 jobs in three
    // takes cross seed boundaries twice.
    UniqueJobSource source(accel::makeAccelerator("cjpeg"), 3);
    std::set<std::vector<std::int64_t>> keys;
    std::size_t taken = 0;
    for (const std::size_t n : {70u, 90u, 100u}) {
        for (const JobInput &job : source.take(n)) {
            keys.insert(sim::JobCache::canonicalKey(0, job));
            ++taken;
        }
    }
    EXPECT_EQ(taken, 260u);
    EXPECT_EQ(keys.size(), taken);
}

TEST(Oracle, RejectsAReplyWithOneFlippedBit)
{
    const auto twin = buildStreamTwin("md");
    const std::vector<JobInput> jobs(twin->work.test.begin(),
                                     twin->work.test.begin() + 3);
    const auto records = twin->engine->prepare(jobs, twin->predictor());
    for (const core::PreparedJob &record : records) {
        const serve::PredictReplyMsg reply{7,
                                           record.cycles,
                                           record.energyUnits,
                                           record.sliceCycles,
                                           record.sliceEnergyUnits,
                                           record.predictedCycles};
        ASSERT_TRUE(replyMatches(reply, record));
        const std::size_t offsets[] = {
            offsetof(serve::PredictReplyMsg, cycles),
            offsetof(serve::PredictReplyMsg, energyUnits),
            offsetof(serve::PredictReplyMsg, sliceCycles),
            offsetof(serve::PredictReplyMsg, sliceEnergyUnits),
            offsetof(serve::PredictReplyMsg, predictedCycles)};
        for (const std::size_t offset : offsets) {
            for (int bit = 0; bit < 64; ++bit) {
                serve::PredictReplyMsg flipped = reply;
                std::uint64_t word = 0;
                auto *field = reinterpret_cast<unsigned char *>(&flipped) +
                    offset;
                std::memcpy(&word, field, sizeof(word));
                word ^= std::uint64_t{1} << bit;
                std::memcpy(field, &word, sizeof(word));
                EXPECT_FALSE(replyMatches(flipped, record))
                    << "field at " << offset << ", bit " << bit;
            }
        }
    }
}

TEST(Oracle, CellReferenceMatchesExperimentAndRejectsAFlippedBit)
{
    sim::JobCache::global().clear();
    sim::clearSharedStreams();
    const std::vector<std::pair<double, double>> configs{{0.8 / 60, 250e-6}};
    const ReferenceStream ref =
        referenceStream("stencil", workload::defaultSeed, configs);
    sim::ExperimentOptions opts;
    opts.deadlineSeconds = configs[0].first;
    opts.switchTimeSeconds = configs[0].second;
    sim::Experiment exp("stencil", opts);
    for (std::size_t s = 0; s < kCellSchemes.size(); ++s) {
        const sim::RunMetrics got = exp.runScheme(kCellSchemes[s]);
        EXPECT_TRUE(metricsEqual(got, ref.cells[0][s])) << s;
        sim::RunMetrics flipped = got;
        std::uint64_t word = 0;
        std::memcpy(&word, &flipped.execEnergyJoules, sizeof(word));
        word ^= 1;
        std::memcpy(&flipped.execEnergyJoules, &word, sizeof(word));
        EXPECT_FALSE(metricsEqual(flipped, ref.cells[0][s]));
    }
}

TEST(Names, RunnerMetricsAreTheOnesBenchmarkJsonDeclares)
{
    std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
    ASSERT_TRUE(in) << "BENCHMARK.json not found";
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = parseJson(text.str());
    ASSERT_TRUE(doc);
    const auto names = [&](const char *key) {
        std::vector<std::string> out;
        for (const Json &m : doc->get(key)->array)
            out.push_back(m.get("name")->string);
        return out;
    };
    EXPECT_EQ(names("end_to_end"),
              std::vector<std::string>(kEndToEndMetrics.begin(),
                                       kEndToEndMetrics.end()));
    EXPECT_EQ(names("per_layer"),
              std::vector<std::string>(kPerLayerMetrics.begin(),
                                       kPerLayerMetrics.end()));
    const std::vector<std::string> workloads = names("workloads");
    EXPECT_EQ(workloads, (std::vector<std::string>{
                             std::string(kServeUnique.name), "sweep"}));
}

TEST(Stats, QuantilesMediansJsonAndSelfTime)
{
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile({5}, 0.99), 5.0);
    EXPECT_EQ(quantile({}, 0.5), 0.0);

    const auto doc = parseJson(
        "{\"a\": [1, 2.5e3, {\"b\": \"x\\\"y\"}], \"c\": true}");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->get("a")->array[1].number, 2500.0);
    EXPECT_EQ(doc->get("a")->array[2].get("b")->string, "x\"y");
    for (const char *bad : {"{", "[1,]", "{\"a\" 1}", "1 2", "\"open",
                            "{\"a\": tru}"})
        EXPECT_FALSE(parseJson(bad)) << bad;
    const auto numbers = parseJson(jsonNumbers({0.25, 1e-9, 3.0}));
    ASSERT_TRUE(numbers);
    ASSERT_EQ(numbers->array.size(), 3u);
    EXPECT_EQ(numbers->array[1].number, 1e-9);

    Tracer tracer;
    const std::uint64_t parent = tracer.begin("parent");
    const std::uint64_t child = tracer.begin("child", parent);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    tracer.end(child, 1);
    tracer.end(parent, 1);
    const auto self = tracer.selfSeconds();
    EXPECT_GE(self.at("child"), 0.004);
    EXPECT_LT(self.at("parent"), self.at("child"));
    EXPECT_NEAR(self.at("parent") + self.at("child"),
                tracer.totalSeconds("parent"), 1e-9);
}
