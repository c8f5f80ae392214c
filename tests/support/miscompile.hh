/**
 * @file
 * Mutation harness for the translation validator (rtl/verify.hh):
 * seeded miscompile injections that corrupt a CompiledDesign's private
 * tables the way a compiler bug would, so tests can assert the
 * validator statically rejects every one. Test support only.
 */

#ifndef PREDVFS_TESTS_SUPPORT_MISCOMPILE_HH
#define PREDVFS_TESTS_SUPPORT_MISCOMPILE_HH

#include <string>

#include "rtl/compile.hh"

namespace predvfs {
namespace rtl {

/** One seeded miscompile kind: the aspect of the artifact it corrupts. */
enum class Miscompile
{
    DropAffineTerm,          //!< Remove a merged affine term.
    AffineImmOffByOne,       //!< Affine/Const immediate off by one.
    SwapBinOperands,         //!< Swap a non-commutative Bin2's sides.
    Bin2ChildNotLeaf,        //!< Point a Bin2 operand at a non-leaf.
    WrongOpcode,             //!< Replace an operator with its dual.
    PoolConstCorrupt,        //!< Perturb a shared literal-pool entry.
    StackImbalance,          //!< Turn a push into a binary op.
    FieldIndexCorrupt,       //!< Shift a field operand to a neighbour.
    PresummedCyclesOffByOne, //!< Corrupt a compressed run's cycle sum.
    SlotDwellCorrupt,        //!< Corrupt a static slot's dwell.
    SlotEnergyCorrupt,       //!< Corrupt a slot's addend/rate.
    AddendCorrupt,           //!< Perturb a dense energy addend.
    SegmentRerouted,         //!< Point a segment at the wrong resume.
    TraceMisroute,           //!< Flip a lockstep trace to scalar.
    TraceCycleSkew,          //!< Skew a trace's presummed cycles.
    GuardDropped,            //!< Turn a guarded edge into a default.
    TransitionRetarget,      //!< Point a transition at a wrong state.
    StateEnergyCorrupt,      //!< Corrupt a state's energy rate.
    FixedDwellCorrupt,       //!< Corrupt a fixed state's dwell.
    JobOverheadCorrupt,      //!< Corrupt the per-job overhead cycles.
    SpecRetarget,            //!< Retarget a speculative taken edge.
    SpecPredictFlip,         //!< Flip a node's predicted outcome.
    SpecCycleSkew,           //!< Skew a spec sweep's presummed cycles.
};

/** @return the stable name of a mutation kind. */
const char *miscompileName(Miscompile kind);

/**
 * Apply one seeded miscompile to @p comp in place. The seed picks the
 * mutation site deterministically among the eligible ones.
 *
 * @return a description of what was corrupted, or the empty string if
 *         the design offers no eligible site for this kind. Never run
 *         a mutated design; it exists only to be verified.
 */
std::string injectMiscompile(CompiledDesign &comp, Miscompile kind,
                             unsigned seed);

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_TESTS_SUPPORT_MISCOMPILE_HH
