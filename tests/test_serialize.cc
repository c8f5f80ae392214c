/**
 * @file
 * Serialization round trips: expressions, full designs (all seven
 * benchmarks — parsed copies must behave identically cycle for
 * cycle), and trained predictors (reloaded predictors produce
 * bit-identical predictions).
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "accel/registry.hh"
#include "core/flow.hh"
#include "core/persist.hh"
#include "rtl/interpreter.hh"
#include "rtl/serialize.hh"
#include "util/random.hh"
#include "workload/suite.hh"

using namespace predvfs;
using namespace predvfs::rtl;

TEST(SerializeExpr, RoundTripsKnownTrees)
{
    const std::vector<ExprPtr> trees = {
        lit(42),
        fld(3),
        Expr::add(lit(1), Expr::mul(fld(0), lit(7))),
        Expr::select(Expr::gt(fld(1), lit(5)), lit(10),
                     Expr::mod(fld(2), lit(13))),
        Expr::logicalNot(Expr::logicalAnd(Expr::eq(fld(0), lit(0)),
                                          Expr::lt(fld(1), fld(2)))),
        Expr::max(lit(1), Expr::div(fld(4), lit(3))),
    };
    std::vector<std::int64_t> fields = {9, 6, 27, -4, 100};
    for (const auto &tree : trees) {
        const std::string text = serializeExpr(tree);
        const ExprPtr parsed = parseExpr(text);
        EXPECT_EQ(parsed->eval(fields), tree->eval(fields)) << text;
        // Idempotent: serialising the parse gives the same text.
        EXPECT_EQ(serializeExpr(parsed), text);
    }
}

TEST(SerializeExpr, NegativeLiterals)
{
    const auto e = Expr::add(lit(-17), fld(0));
    const auto parsed = parseExpr(serializeExpr(e));
    EXPECT_EQ(parsed->eval(std::vector<std::int64_t>{3}), -14);
}

TEST(SerializeExprDeath, MalformedInputFatal)
{
    EXPECT_DEATH(parseExpr("(add (lit 1)"), "");
    EXPECT_DEATH(parseExpr("(frobnicate (lit 1) (lit 2))"), "");
    EXPECT_DEATH(parseExpr("(lit 1) (lit 2)"), "trailing");
}

class DesignRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DesignRoundTrip, ParsedDesignBehavesIdentically)
{
    const auto acc = accel::makeAccelerator(GetParam());
    const Design &original = acc->design();

    std::stringstream buffer;
    writeDesign(buffer, original);
    const Design parsed = readDesign(buffer);

    // Structural identity.
    EXPECT_EQ(parsed.name(), original.name());
    EXPECT_EQ(parsed.fieldNames(), original.fieldNames());
    EXPECT_EQ(parsed.counters().size(), original.counters().size());
    EXPECT_EQ(parsed.fsms().size(), original.fsms().size());
    EXPECT_EQ(parsed.totalStates(), original.totalStates());
    EXPECT_EQ(parsed.totalTransitions(),
              original.totalTransitions());
    EXPECT_DOUBLE_EQ(parsed.areaUnits(), original.areaUnits());

    // Behavioural identity on random jobs.
    Interpreter a(original);
    Interpreter b(parsed);
    util::Rng rng(31);
    for (int t = 0; t < 10; ++t) {
        JobInput job;
        const auto items = rng.uniformInt(1, 20);
        for (std::int64_t i = 0; i < items; ++i) {
            WorkItem item;
            for (std::size_t f = 0; f < original.numFields(); ++f)
                item.fields.push_back(rng.uniformInt(0, 80));
            job.items.push_back(std::move(item));
        }
        const auto ra = a.run(job);
        const auto rb = b.run(job);
        EXPECT_EQ(ra.cycles, rb.cycles);
        EXPECT_DOUBLE_EQ(ra.energyUnits, rb.energyUnits);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DesignRoundTrip,
    ::testing::ValuesIn(accel::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(PredictorPersistence, ReloadedPredictorIdentical)
{
    const auto acc = accel::makeAccelerator("cjpeg");
    const auto work = workload::makeWorkload(*acc);
    const auto flow = core::buildPredictor(acc->design(), work.train);

    std::stringstream buffer;
    core::savePredictor(buffer, *flow.predictor);
    const auto reloaded = core::loadPredictor(buffer);

    ASSERT_EQ(reloaded->numFeatures(), flow.predictor->numFeatures());
    for (std::size_t j = 0; j < 20; ++j) {
        const auto original = flow.predictor->run(work.test[j]);
        const auto copy = reloaded->run(work.test[j]);
        EXPECT_EQ(copy.sliceCycles, original.sliceCycles);
        EXPECT_DOUBLE_EQ(copy.predictedCycles,
                         original.predictedCycles);
    }
    EXPECT_DOUBLE_EQ(reloaded->slice().areaUnits(),
                     flow.predictor->slice().areaUnits());
}

TEST(PredictorPersistenceDeath, WrongMagicFatal)
{
    std::stringstream buffer;
    buffer << "not-a-predictor\n";
    EXPECT_DEATH(core::loadPredictor(buffer), "not a predvfs");
}

TEST(SerializeDesignDeath, MissingEndFatal)
{
    std::stringstream buffer;
    buffer << "design broken\nfield x\n";
    EXPECT_DEATH(readDesign(buffer), "missing 'end'");
}

TEST(SerializeDesign, FieldRangesRoundTrip)
{
    Design d("ranged");
    const auto x = d.addField("x");
    const auto y = d.addField("y");
    d.setFieldRange(y, -7, 1023);
    const auto fsm = d.addFsm("m");
    State s0;
    s0.name = "S0";
    const auto id0 = d.addState(fsm, std::move(s0));
    State s1;
    s1.name = "Done";
    s1.terminal = true;
    const auto id1 = d.addState(fsm, std::move(s1));
    d.addTransition(fsm, id0, Expr::gt(fld(x), lit(0)), id1);
    d.addTransition(fsm, id0, nullptr, id1);
    d.validate();

    std::ostringstream os;
    writeDesign(os, d);
    // Undeclared fields stay undeclared in the file (back compat).
    EXPECT_EQ(os.str().find("fieldrange 0"), std::string::npos);
    EXPECT_NE(os.str().find("fieldrange 1 -7 1023"), std::string::npos);

    std::istringstream is(os.str());
    const Design parsed = readDesign(is);
    EXPECT_EQ(parsed.fieldBounds()[x].lo,
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parsed.fieldBounds()[y].lo, -7);
    EXPECT_EQ(parsed.fieldBounds()[y].hi, 1023);
}
