/**
 * @file
 * Controller behaviours in isolation: baseline constancy, PID lag and
 * tuning, table worst-case logic, predictive overhead accounting,
 * oracle optimality.
 */

#include <gtest/gtest.h>

#include "core/oracle_controller.hh"
#include "core/pid_controller.hh"
#include "core/predictive_controller.hh"
#include "core/table_controller.hh"
#include "power/vf_model.hh"

using namespace predvfs;
using namespace predvfs::core;

namespace {

struct Fixture
{
    power::VfModel vf = power::VfModel::asic65nm(250e6);
    power::OperatingPointTable table =
        power::OperatingPointTable::asic(vf, true);
    DvfsModelConfig dvfs;

    PreparedJob
    job(double nominal_seconds) const
    {
        PreparedJob j;
        j.cycles = static_cast<std::uint64_t>(nominal_seconds * 250e6);
        j.energyUnits = 1.0;
        return j;
    }
};

/** A job of @p n field-less items (only its size matters here). */
rtl::JobInput
jobOfSize(std::size_t n)
{
    rtl::JobInput job;
    for (std::size_t i = 0; i < n; ++i)
        job.items.appendItem(0);
    return job;
}

} // namespace

TEST(BaselineController, AlwaysFixedLevel)
{
    Fixture f;
    ConstantController c(f.table.nominalIndex());
    for (double t : {1e-3, 8e-3, 20e-3}) {
        const auto d = c.decide(f.job(t), 0, 1.0 / 60.0);
        EXPECT_EQ(d.level, f.table.nominalIndex());
        EXPECT_DOUBLE_EQ(d.overheadSeconds, 0.0);
    }
}

TEST(PidController, FirstJobRunsAtNominal)
{
    Fixture f;
    PidController pid(f.table, 250e6, f.dvfs, PidConfig{});
    const auto d =
        pid.decide(f.job(5e-3), f.table.nominalIndex(), 1.0 / 60.0);
    EXPECT_EQ(d.level, f.table.nominalIndex());
}

TEST(PidController, TracksConstantWorkload)
{
    Fixture f;
    PidController pid(f.table, 250e6, f.dvfs, PidConfig{});
    const PreparedJob j = f.job(6e-3);
    std::size_t level = f.table.nominalIndex();
    for (int i = 0; i < 20; ++i) {
        const auto d = pid.decide(j, level, 1.0 / 60.0);
        level = d.level;
        pid.observe(j, 6e-3);
    }
    EXPECT_NEAR(pid.currentPrediction(), 6e-3, 0.3e-3);
    // A 6 ms job with margin fits well below nominal.
    EXPECT_LT(level, f.table.nominalIndex());
}

TEST(PidController, LagsBehindSpike)
{
    Fixture f;
    PidController pid(f.table, 250e6, f.dvfs, PidConfig{});
    // Warm up on 5 ms jobs.
    for (int i = 0; i < 10; ++i) {
        pid.decide(f.job(5e-3), 0, 1.0 / 60.0);
        pid.observe(f.job(5e-3), 5e-3);
    }
    // The spike arrives: the prediction still reflects history.
    const auto d = pid.decide(f.job(14e-3), 0, 1.0 / 60.0);
    EXPECT_LT(d.predictedNominalSeconds, 7e-3);
    // After observing it, the prediction jumps up (over-prediction
    // for the next normal job = the paper's Figure 3 pattern).
    pid.observe(f.job(14e-3), 14e-3);
    EXPECT_GT(pid.currentPrediction(), 7e-3);
}

TEST(PidController, ResetForgetsHistory)
{
    Fixture f;
    PidController pid(f.table, 250e6, f.dvfs, PidConfig{});
    pid.decide(f.job(9e-3), 0, 1.0 / 60.0);
    pid.observe(f.job(9e-3), 9e-3);
    pid.reset();
    const auto d = pid.decide(f.job(2e-3), 0, 1.0 / 60.0);
    EXPECT_EQ(d.level, f.table.nominalIndex());  // Primed again.
}

TEST(PidController, TuneReducesError)
{
    // A predictable AR(1)-ish sequence: tuned gains must beat the
    // all-zero gains (pure hold) on MSE.
    std::vector<double> seq;
    double v = 5e-3;
    for (int i = 0; i < 300; ++i) {
        v = 0.9 * v + 0.1 * ((i % 37) < 18 ? 4e-3 : 8e-3);
        seq.push_back(v);
    }
    const PidConfig tuned = PidController::tune(seq);
    EXPECT_GT(tuned.kp, 0.0);
    EXPECT_DOUBLE_EQ(tuned.marginFraction, 0.10);
}

TEST(TableController, UsesWorstCasePerClass)
{
    Fixture f;
    // Two size classes: small jobs up to 4 ms, large up to 12 ms.
    std::vector<std::pair<std::size_t, double>> profile = {
        {16, 3e-3}, {16, 4e-3}, {1024, 10e-3}, {1024, 12e-3}};
    TableController table(f.table, 250e6, f.dvfs, profile);

    const rtl::JobInput small_input = jobOfSize(16);
    PreparedJob small = f.job(2e-3);
    small.input = &small_input;

    const rtl::JobInput large_input = jobOfSize(1024);
    PreparedJob large = f.job(9e-3);
    large.input = &large_input;

    const auto d_small = table.decide(small, 5, 1.0 / 60.0);
    const auto d_large = table.decide(large, 5, 1.0 / 60.0);
    EXPECT_DOUBLE_EQ(d_small.predictedNominalSeconds, 4e-3);
    EXPECT_DOUBLE_EQ(d_large.predictedNominalSeconds, 12e-3);
    EXPECT_LT(d_small.level, d_large.level);
}

TEST(TableController, UnseenClassFallsBackToGlobalWorst)
{
    Fixture f;
    std::vector<std::pair<std::size_t, double>> profile = {
        {16, 3e-3}, {1024, 12e-3}};
    TableController table(f.table, 250e6, f.dvfs, profile);

    // Class never profiled.
    const rtl::JobInput odd_input = jobOfSize(100000);
    PreparedJob odd = f.job(5e-3);
    odd.input = &odd_input;

    const auto d = table.decide(odd, 5, 1.0 / 60.0);
    EXPECT_DOUBLE_EQ(d.predictedNominalSeconds, 12e-3);
}

TEST(TableController, SizeClassBuckets)
{
    EXPECT_EQ(TableController::sizeClass(1),
              TableController::sizeClass(1));
    EXPECT_EQ(TableController::sizeClass(1000),
              TableController::sizeClass(1023));
    EXPECT_NE(TableController::sizeClass(512),
              TableController::sizeClass(2048));
}

TEST(PredictiveController, ChargesSliceOverhead)
{
    Fixture f;
    PredictiveController pred(f.table, 250e6, f.dvfs);
    PreparedJob j = f.job(6e-3);
    j.predictedCycles = 6e-3 * 250e6;
    j.sliceCycles = static_cast<std::uint64_t>(0.3e-3 * 250e6);
    j.sliceEnergyUnits = 42.0;

    const auto d = pred.decide(j, 5, 1.0 / 60.0);
    EXPECT_NEAR(d.overheadSeconds, 0.3e-3, 1e-9);
    EXPECT_DOUBLE_EQ(d.overheadEnergyUnits, 42.0);
    EXPECT_NEAR(d.predictedNominalSeconds, 6e-3, 1e-9);
    EXPECT_TRUE(d.chargeSwitch);
}

TEST(PredictiveController, NoOverheadVariant)
{
    Fixture f;
    DvfsModelConfig config;
    config.ignoreOverheads = true;
    PredictiveController pred(f.table, 250e6, config);
    PreparedJob j = f.job(6e-3);
    j.predictedCycles = 6e-3 * 250e6;
    j.sliceCycles = static_cast<std::uint64_t>(1e-3 * 250e6);

    const auto d = pred.decide(j, 5, 1.0 / 60.0);
    EXPECT_DOUBLE_EQ(d.overheadSeconds, 0.0);
    EXPECT_FALSE(d.chargeSwitch);
    EXPECT_EQ(pred.name(), "prediction w/o overhead");
}

TEST(PredictiveControllerDeath, RequiresSliceResults)
{
    Fixture f;
    PredictiveController pred(f.table, 250e6, f.dvfs);
    PreparedJob j = f.job(6e-3);  // predictedCycles left at 0.
    EXPECT_DEATH(pred.decide(j, 5, 1.0 / 60.0), "slice prediction");
}

TEST(OracleController, PicksLowestFeasibleLevel)
{
    Fixture f;
    OracleController oracle(f.table, 250e6, f.dvfs);
    // For each level, craft a job that fits there and only there.
    for (std::size_t level = 0; level < 6; ++level) {
        const double ratio = f.table[level].frequencyHz / 250e6;
        const double t = (1.0 / 60.0) * ratio * 0.999;
        const auto d = oracle.decide(f.job(t), 5, 1.0 / 60.0);
        EXPECT_EQ(d.level, level);
        EXPECT_FALSE(d.chargeSwitch);
    }
}
