/**
 * @file
 * Workload generators: reproducibility, Table 3 shapes, field-range
 * invariants, and the temporal structure the DVFS comparison depends
 * on (GOP spikes in video, burst correlation in images/buffers).
 */

#include <gtest/gtest.h>

#include "accel/h264.hh"
#include "accel/registry.hh"
#include "rtl/interpreter.hh"
#include "workload/suite.hh"
#include "workload/video.hh"

using namespace predvfs;

class WorkloadSuite : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        acc = accel::makeAccelerator(GetParam());
        work = workload::makeWorkload(*acc);
    }

    std::shared_ptr<const accel::Accelerator> acc;
    workload::BenchmarkWorkload work;
};

TEST_P(WorkloadSuite, NonEmptyTrainAndTest)
{
    EXPECT_FALSE(work.train.empty());
    EXPECT_FALSE(work.test.empty());
    for (const auto &job : work.train)
        EXPECT_FALSE(job.items.empty());
}

TEST_P(WorkloadSuite, ReproducibleFromSeed)
{
    const auto again = workload::makeWorkload(*acc);
    ASSERT_EQ(work.test.size(), again.test.size());
    for (std::size_t j = 0; j < work.test.size(); ++j)
        EXPECT_TRUE(work.test[j] == again.test[j]) << "job " << j;
}

TEST_P(WorkloadSuite, DifferentSeedsDiffer)
{
    const auto other = workload::makeWorkload(*acc, 999);
    EXPECT_FALSE(other.test == work.test);
}

TEST_P(WorkloadSuite, TrainTestDisjointStreams)
{
    // Train and test come from split RNG streams; spot-check that the
    // first jobs differ.
    ASSERT_FALSE(work.train.empty());
    ASSERT_FALSE(work.test.empty());
    EXPECT_FALSE(work.train.front() == work.test.front());
}

TEST_P(WorkloadSuite, FieldsAreNonNegative)
{
    for (const auto &job : work.test)
        for (const auto &item : job.items)
            for (auto v : item.fields)
                EXPECT_GE(v, 0);
}

TEST_P(WorkloadSuite, ExecutionTimesFitUnderDeadlineMostly)
{
    // The Table 4 shape: the test stream's max execution time at the
    // nominal point stays around (mostly under) the 16.7 ms deadline.
    rtl::Interpreter interp(acc->design());
    std::size_t over = 0;
    for (const auto &job : work.test) {
        const double seconds =
            static_cast<double>(interp.run(job).cycles) /
            acc->nominalFrequencyHz();
        if (seconds > 1.0 / 60.0)
            ++over;
    }
    EXPECT_LE(over, work.test.size() / 20);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadSuite,
    ::testing::ValuesIn(accel::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---- Structure-specific checks. -------------------------------------

TEST(VideoWorkload, Table3Counts)
{
    const auto acc = accel::makeAccelerator("h264");
    const auto work = workload::makeWorkload(*acc);
    EXPECT_EQ(work.train.size(), 600u);   // 2 videos x 300 frames.
    EXPECT_EQ(work.test.size(), 1500u);   // 5 videos x 300 frames.
    for (const auto &job : work.test)
        EXPECT_EQ(job.items.size(), 396u);  // Same resolution.
}

TEST(VideoWorkload, GopProducesIntraSpikes)
{
    const auto acc = accel::makeAccelerator("h264");
    const auto f = accel::h264Fields(acc->design());
    util::Rng rng(5);
    const auto clip = workload::makeVideoClip(
        acc->design(), workload::figure2Profiles()[1], 90, 396, rng);

    // Count intra-dominated frames: with GOP length 30 there should
    // be roughly 3 in 90 frames.
    int intra_frames = 0;
    for (const auto &job : clip) {
        int intra_mbs = 0;
        for (const auto &item : job.items)
            if (item.fields[f.mbType] <= 1)
                ++intra_mbs;
        if (intra_mbs > static_cast<int>(job.items.size()) / 2)
            ++intra_frames;
    }
    EXPECT_GE(intra_frames, 3);
    EXPECT_LE(intra_frames, 8);
}

TEST(VideoWorkload, MotionOrdersClipCost)
{
    const auto acc = accel::makeAccelerator("h264");
    rtl::Interpreter interp(acc->design());
    util::Rng rng(9);

    auto mean_cycles = [&](const workload::VideoProfile &profile) {
        const auto clip = workload::makeVideoClip(
            acc->design(), profile, 60, 396, rng.split(1));
        double total = 0.0;
        for (const auto &job : clip)
            total += static_cast<double>(interp.run(job).cycles);
        return total / static_cast<double>(clip.size());
    };

    const auto profiles = workload::figure2Profiles();  // cg, fm, news.
    const double coastguard = mean_cycles(profiles[0]);
    const double news = mean_cycles(profiles[2]);
    EXPECT_GT(coastguard, news);
}

TEST(BufferWorkload, SessionsCorrelateSizes)
{
    const auto acc = accel::makeAccelerator("sha");
    const auto work = workload::makeWorkload(*acc);

    // Count how often consecutive jobs have near-equal item counts;
    // with ~4-job sessions this should clearly beat independence.
    int close = 0;
    for (std::size_t i = 1; i < work.test.size(); ++i) {
        const double a =
            static_cast<double>(work.test[i - 1].items.size());
        const double b =
            static_cast<double>(work.test[i].items.size());
        if (std::abs(a - b) <= 0.25 * std::max(a, b))
            ++close;
    }
    EXPECT_GT(close, static_cast<int>(work.test.size()) / 3);
}

TEST(MdWorkload, DensityVariesAcrossSteps)
{
    const auto acc = accel::makeAccelerator("md");
    const auto work = workload::makeWorkload(*acc);
    rtl::Interpreter interp(acc->design());

    double min_c = 1e18;
    double max_c = 0.0;
    for (const auto &job : work.test) {
        const double c = static_cast<double>(interp.run(job).cycles);
        min_c = std::min(min_c, c);
        max_c = std::max(max_c, c);
    }
    EXPECT_GT(max_c / min_c, 3.0);  // Large step-to-step variation.
}
