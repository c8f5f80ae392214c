/**
 * @file
 * Div/mod conformance across every evaluator: safeDiv()/safeMod() are
 * the single definition of division semantics (x/0 == 0, INT64_MIN/-1
 * wraps, x%-1 == 0), and the tree walker, the standalone bytecode
 * program, the shared-pool bytecode path, and the interval transfer
 * functions must all agree with them on the full signed edge grid —
 * including the INT64_MIN magnitude corners that previously saturated
 * one value too early in the modulus interval.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "accel/builder.hh"
#include "rtl/compile.hh"
#include "rtl/design.hh"
#include "rtl/expr.hh"
#include "rtl/interval.hh"
#include "rtl/verify.hh"
#include "support/expr_program.hh"

using namespace predvfs;
using namespace predvfs::rtl;

namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/** Values that exercise every div/mod branch and overflow corner. */
const std::int64_t kEdge[] = {
    kMin, kMin + 1, -7, -2, -1, 0, 1, 2, 7, kMax - 1, kMax,
};

// The semantics the whole stack promises, checked at compile time.
static_assert(safeDiv(5, 0) == 0, "x/0 == 0");
static_assert(safeMod(5, 0) == 0, "x%0 == 0");
static_assert(safeDiv(kMin, -1) == kMin, "INT64_MIN/-1 wraps");
static_assert(safeMod(kMin, -1) == 0, "x%-1 == 0");
static_assert(safeDiv(7, -1) == -7, "plain negate via -1");
static_assert(safeMod(kMax, kMin) == kMax, "|b| > |a| keeps a");

} // namespace

TEST(DivMod, TreeEvalMatchesSafeDivMod)
{
    // fld() operands, not lit(): the factories constant-fold literal
    // operands, which would bypass the runtime evaluator under test.
    const ExprPtr dv = Expr::div(fld(0), fld(1));
    const ExprPtr md = Expr::mod(fld(0), fld(1));
    for (std::int64_t a : kEdge) {
        for (std::int64_t b : kEdge) {
            const std::vector<std::int64_t> fields = {a, b};
            EXPECT_EQ(dv->eval(fields), safeDiv(a, b))
                << a << " / " << b;
            EXPECT_EQ(md->eval(fields), safeMod(a, b))
                << a << " % " << b;
        }
    }
}

TEST(DivMod, BytecodeProgramMatchesSafeDivMod)
{
    const ExprProgram dv(Expr::div(fld(0), fld(1)));
    const ExprProgram md(Expr::mod(fld(0), fld(1)));
    for (std::int64_t a : kEdge) {
        for (std::int64_t b : kEdge) {
            const std::vector<std::int64_t> fields = {a, b};
            EXPECT_EQ(dv.eval(fields), safeDiv(a, b))
                << a << " / " << b;
            EXPECT_EQ(md.eval(fields), safeMod(a, b))
                << a << " % " << b;
        }
    }
}

TEST(DivMod, ApplyBinaryMatchesSafeDivMod)
{
    for (std::int64_t a : kEdge) {
        for (std::int64_t b : kEdge) {
            EXPECT_EQ(applyBinary(Op::Div, a, b), safeDiv(a, b));
            EXPECT_EQ(applyBinary(Op::Mod, a, b), safeMod(a, b));
        }
    }
}

TEST(DivMod, PointIntervalsContainExactResult)
{
    for (std::int64_t a : kEdge) {
        for (std::int64_t b : kEdge) {
            const Interval ia = Interval::point(a);
            const Interval ib = Interval::point(b);
            EXPECT_TRUE(binaryOpInterval(Op::Div, ia, ib)
                            .contains(safeDiv(a, b)))
                << a << " / " << b;
            EXPECT_TRUE(binaryOpInterval(Op::Mod, ia, ib)
                            .contains(safeMod(a, b)))
                << a << " % " << b;
        }
    }
}

TEST(DivMod, HulledIntervalsStaySound)
{
    // Every concrete pair drawn from a pair of hulls must land inside
    // the abstract result of those hulls.
    for (std::int64_t alo : kEdge) {
        for (std::int64_t ahi : kEdge) {
            if (alo > ahi)
                continue;
            const Interval ia = Interval::of(alo, ahi);
            for (std::int64_t blo : kEdge) {
                for (std::int64_t bhi : kEdge) {
                    if (blo > bhi)
                        continue;
                    const Interval ib = Interval::of(blo, bhi);
                    const Interval dv =
                        binaryOpInterval(Op::Div, ia, ib);
                    const Interval md =
                        binaryOpInterval(Op::Mod, ia, ib);
                    for (std::int64_t a : {alo, ahi}) {
                        for (std::int64_t b : {blo, bhi}) {
                            EXPECT_TRUE(dv.contains(safeDiv(a, b)))
                                << a << " / " << b << " in ["
                                << alo << "," << ahi << "]/[" << blo
                                << "," << bhi << "]";
                            EXPECT_TRUE(md.contains(safeMod(a, b)))
                                << a << " % " << b;
                        }
                    }
                }
            }
        }
    }
}

TEST(DivMod, ModIntervalMinMagnitudeRegression)
{
    // Regression: |INT64_MIN| used to saturate to INT64_MAX before the
    // "minus one" step, wrongly excluding safeMod(kMax, kMin) == kMax
    // from the modulus interval.
    EXPECT_TRUE(binaryOpInterval(Op::Mod, Interval::point(kMax),
                                 Interval::point(kMin))
                    .contains(kMax));
    EXPECT_TRUE(binaryOpInterval(Op::Mod, Interval::point(kMin + 1),
                                 Interval::point(kMin))
                    .contains(safeMod(kMin + 1, kMin)));
    EXPECT_EQ(safeMod(kMin + 1, kMin), kMin + 1);
    // Divisor hulls spanning kMin must keep the widest remainders.
    EXPECT_TRUE(binaryOpInterval(Op::Mod,
                                 Interval::of(0, kMax),
                                 Interval::of(kMin, kMin + 2))
                    .contains(kMax));
}

TEST(DivMod, DivByZeroFlagsAreSet)
{
    IntervalEvalFlags flags;
    binaryOpInterval(Op::Div, Interval::point(5),
                     Interval::of(-1, 1), &flags);
    EXPECT_TRUE(flags.divModByZeroPossible);
    EXPECT_FALSE(flags.divModByZeroDefinite);

    flags = IntervalEvalFlags{};
    binaryOpInterval(Op::Mod, Interval::point(5),
                     Interval::point(0), &flags);
    EXPECT_TRUE(flags.divModByZeroDefinite);
}

TEST(DivMod, CompiledDesignAgreesWithTreesOnSignedDomain)
{
    // A design whose compiled programs are div/mod-heavy over fields
    // spanning negatives and zero; the construction-time validator
    // must accept it, and the shared-pool bytecode path must agree
    // with the tree on the entire domain.
    Design d("divmod");
    const FieldId x = d.addField("x");
    const FieldId y = d.addField("y");
    d.setFieldRange(x, -6, 6);
    d.setFieldRange(y, -3, 3);

    const ExprPtr range = Expr::add(
        Expr::add(Expr::div(fld(x), fld(y)),
                  Expr::mod(Expr::add(fld(x), lit(7)), fld(y))),
        lit(9));
    const CounterId c0 =
        d.addCounter("c0", CounterDir::Down, range, 16);

    const FsmId f = d.addFsm("main");
    const StateId w0 = d.addState(f, accel::waitState("W0", c0));
    const StateId l1 = d.addState(
        f, accel::implicitState(
               "L1", Expr::max(Expr::div(Expr::mul(fld(x), fld(x)),
                                         Expr::mod(fld(y), lit(5))),
                               lit(1))));
    const StateId done = d.addState(f, accel::doneState("Done"));
    d.addTransition(f, w0, nullptr, l1);
    d.addTransition(f, l1, nullptr, done);
    d.validate();

    const CompiledDesign comp(d);
    const VerifyReport report = verifyCompiledDesign(comp);
    EXPECT_EQ(report.numErrors(), 0u);
    // Both divisors can be zero: the validator pins them as guarded.
    EXPECT_GE(report.guardedDivSites + report.rootsProven +
                  report.rootsEnumerated,
              2u);

    std::vector<std::int64_t> scratch(comp.scratchSize());
    for (std::int64_t a = -6; a <= 6; ++a) {
        for (std::int64_t b = -3; b <= 3; ++b) {
            const std::vector<std::int64_t> fields = {a, b};
            for (const auto &[tree, prog] : comp.rootExprs()) {
                EXPECT_EQ(comp.evalProgram(prog, fields.data(),
                                           scratch.data()),
                          tree->eval(fields))
                    << tree->toString() << " at x=" << a
                    << " y=" << b;
            }
        }
    }
}
