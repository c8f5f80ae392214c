/**
 * @file
 * Mutation harness for the translation validator: seeded miscompile
 * injections. Each kind corrupts the compiled tables the way a real
 * compiler bug would; the tests assert the validator statically
 * rejects every one. Test support only: no library links it.
 */

#include "support/miscompile.hh"

#include <set>
#include <utility>
#include <vector>

namespace predvfs {
namespace rtl {

const char *
miscompileName(Miscompile kind)
{
    switch (kind) {
      case Miscompile::DropAffineTerm: return "drop-affine-term";
      case Miscompile::AffineImmOffByOne: return "affine-imm-off-by-one";
      case Miscompile::SwapBinOperands: return "swap-bin-operands";
      case Miscompile::Bin2ChildNotLeaf: return "bin2-child-not-leaf";
      case Miscompile::WrongOpcode: return "wrong-opcode";
      case Miscompile::PoolConstCorrupt: return "pool-const-corrupt";
      case Miscompile::StackImbalance: return "stack-imbalance";
      case Miscompile::FieldIndexCorrupt: return "field-index-corrupt";
      case Miscompile::PresummedCyclesOffByOne:
        return "presummed-cycles-off-by-one";
      case Miscompile::SlotDwellCorrupt: return "slot-dwell-corrupt";
      case Miscompile::SlotEnergyCorrupt: return "slot-energy-corrupt";
      case Miscompile::AddendCorrupt: return "addend-corrupt";
      case Miscompile::SegmentRerouted: return "segment-rerouted";
      case Miscompile::TraceMisroute: return "trace-misroute";
      case Miscompile::TraceCycleSkew: return "trace-cycle-skew";
      case Miscompile::GuardDropped: return "guard-dropped";
      case Miscompile::TransitionRetarget: return "transition-retarget";
      case Miscompile::StateEnergyCorrupt:
        return "state-energy-corrupt";
      case Miscompile::FixedDwellCorrupt: return "fixed-dwell-corrupt";
      case Miscompile::JobOverheadCorrupt:
        return "job-overhead-corrupt";
      case Miscompile::SpecRetarget: return "spec-retarget";
      case Miscompile::SpecPredictFlip: return "spec-predict-flip";
      case Miscompile::SpecCycleSkew: return "spec-cycle-skew";
    }
    return "?";
}

namespace {

std::int64_t
wrapInc(std::int64_t x)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) + 1);
}

/** One LCG step; the mutation harness's entire randomness budget. */
std::size_t
pickSite(unsigned seed, std::size_t n)
{
    const unsigned s = seed * 1664525u + 1013904223u;
    return static_cast<std::size_t>(s % n);
}

bool
pointBounds(const Design &d, FieldId f)
{
    const FieldBounds &b = d.fieldBounds()[f];
    return b.lo == b.hi;
}

/** The complement of a comparison — differs at *every* input. */
bool
complementCmp(Op op, Op &out)
{
    switch (op) {
      case Op::Eq: out = Op::Ne; return true;
      case Op::Ne: out = Op::Eq; return true;
      case Op::Lt: out = Op::Ge; return true;
      case Op::Le: out = Op::Gt; return true;
      case Op::Gt: out = Op::Le; return true;
      case Op::Ge: out = Op::Lt; return true;
      default: return false;
    }
}

/** A plausible wrong operator for a node-level miscompile. */
bool
dualOp(Op op, Op &out)
{
    if (complementCmp(op, out))
        return true;
    switch (op) {
      case Op::Add: out = Op::Sub; return true;
      case Op::Sub: out = Op::Add; return true;
      case Op::Mul: out = Op::Add; return true;
      case Op::Div: out = Op::Mul; return true;
      case Op::Mod: out = Op::Add; return true;
      case Op::Min: out = Op::Max; return true;
      case Op::Max: out = Op::Min; return true;
      case Op::And: out = Op::Or; return true;
      case Op::Or: out = Op::And; return true;
      default: return false;
    }
}

bool
isNonCommutative(Op op)
{
    switch (op) {
      case Op::Sub: case Op::Div: case Op::Mod: case Op::Lt:
      case Op::Le: case Op::Gt: case Op::Ge:
        return true;
      default:
        return false;
    }
}

} // namespace

std::string
injectMiscompile(CompiledDesign &comp, Miscompile kind, unsigned seed)
{
    using CExpr = CompiledDesign::CExpr;
    using CTerm = CompiledDesign::CTerm;
    const Design &d = *comp.src;
    const auto tag = [&](const std::string &what) {
        return std::string(miscompileName(kind)) + ": " + what;
    };

    switch (kind) {
      case Miscompile::DropAffineTerm: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr &e = comp.programs[i];
            if (e.kind != CExpr::Kind::Affine || e.count < 1)
                continue;
            const CTerm &t = comp.affinePool[e.first + e.count - 1];
            const bool trivial = t.kind == CTerm::Kind::Linear
                                     ? t.a == 0
                                     : (t.a == 0 && t.b == 0);
            if (!trivial)
                sites.push_back(i);
        }
        if (sites.empty())
            return "";
        const std::size_t p = sites[pickSite(seed, sites.size())];
        comp.programs[p].count -= 1;
        return tag("dropped the last merged term of affine program #" +
                   std::to_string(p));
      }

      case Miscompile::AffineImmOffByOne: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr::Kind k = comp.programs[i].kind;
            if (k == CExpr::Kind::Affine || k == CExpr::Kind::Const)
                sites.push_back(i);
        }
        if (sites.empty())
            return "";
        const std::size_t p = sites[pickSite(seed, sites.size())];
        comp.programs[p].imm = wrapInc(comp.programs[p].imm);
        return tag("bumped the immediate of program #" +
                   std::to_string(p));
      }

      case Miscompile::SwapBinOperands: {
        // Only Bin2 has a swappable operand pair; a BinFC's constant
        // side has no field-side slot to move into.
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr &e = comp.programs[i];
            if (e.kind != CExpr::Kind::Bin2 || !isNonCommutative(e.op))
                continue;
            // Swapping two reads of one field, or of two pinned
            // fields, is value-coincident; skip those.
            const CExpr &l = comp.programs[e.a];
            const CExpr &r = comp.programs[e.b];
            if (l.kind == CExpr::Kind::Field &&
                r.kind == CExpr::Kind::Field &&
                (l.field == r.field ||
                 (pointBounds(d, l.field) && pointBounds(d, r.field))))
                continue;
            sites.push_back(i);
        }
        if (sites.empty())
            return "";
        const std::size_t p = sites[pickSite(seed, sites.size())];
        std::swap(comp.programs[p].a, comp.programs[p].b);
        return tag("swapped the operands of non-commutative program #" +
                   std::to_string(p));
      }

      case Miscompile::Bin2ChildNotLeaf: {
        // The evaluators read Bin2 children as leaves without
        // recursion; a composite child (here the node itself) would be
        // misread, so the validator must refuse the shape outright.
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i)
            if (comp.programs[i].kind == CExpr::Kind::Bin2)
                sites.push_back(i);
        if (sites.empty())
            return "";
        const std::size_t p = sites[pickSite(seed, sites.size())];
        comp.programs[p].a = static_cast<std::int32_t>(p);
        return tag("pointed the left operand of Bin2 program #" +
                   std::to_string(p) + " at a non-leaf node");
      }

      case Miscompile::WrongOpcode: {
        // Node-level sites: any binary specialisation with a dual.
        // Code-level sites: comparison instructions only — their
        // complements differ at every input, so the rejection does not
        // hinge on a particular field domain.
        struct Site
        {
            bool inCode;
            std::size_t idx;
            Op repl;
        };
        std::vector<Site> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr &e = comp.programs[i];
            if (e.kind != CExpr::Kind::BinFC &&
                e.kind != CExpr::Kind::Bin2)
                continue;
            Op repl;
            if (!dualOp(e.op, repl))
                continue;
            // Min<->Max and And<->Or on a field paired with itself are
            // identity rewrites; skip those.
            if (e.kind == CExpr::Kind::Bin2 &&
                comp.programs[e.a].kind == CExpr::Kind::Field &&
                comp.programs[e.b].kind == CExpr::Kind::Field &&
                comp.programs[e.a].field == comp.programs[e.b].field &&
                (e.op == Op::Min || e.op == Op::Max ||
                 e.op == Op::And || e.op == Op::Or))
                continue;
            sites.push_back({false, i, repl});
        }
        for (std::size_t i = 0; i < comp.code.size(); ++i) {
            Op repl;
            if (complementCmp(comp.code[i].op, repl))
                sites.push_back({true, i, repl});
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        if (s.inCode) {
            comp.code[s.idx].op = s.repl;
            return tag("complemented the comparison at instruction " +
                       std::to_string(s.idx));
        }
        comp.programs[s.idx].op = s.repl;
        return tag("replaced the operator of program #" +
                   std::to_string(s.idx) + " with its dual");
      }

      case Miscompile::PoolConstCorrupt: {
        std::set<std::int32_t> used;
        for (const BInstr &in : comp.code)
            if (in.op == Op::Const)
                used.insert(in.arg);
        if (used.empty())
            return "";
        const std::vector<std::int32_t> sites(used.begin(), used.end());
        const std::int32_t k = sites[pickSite(seed, sites.size())];
        comp.pool[k] = wrapInc(comp.pool[k]);
        return tag("perturbed literal-pool entry " + std::to_string(k));
      }

      case Miscompile::StackImbalance: {
        std::vector<std::size_t> sites;
        for (const CExpr &e : comp.programs) {
            if (e.kind != CExpr::Kind::Program)
                continue;
            for (std::uint32_t i = 0; i < e.count; ++i) {
                const Op op = comp.code[e.first + i].op;
                if (op == Op::Const || op == Op::Field)
                    sites.push_back(e.first + i);
            }
        }
        if (sites.empty())
            return "";
        const std::size_t idx = sites[pickSite(seed, sites.size())];
        comp.code[idx].op = Op::Add;
        comp.code[idx].arg = 0;
        return tag("turned the push at instruction " +
                   std::to_string(idx) + " into a binary op");
      }

      case Miscompile::FieldIndexCorrupt: {
        const std::size_t nf = d.numFields();
        if (nf < 2)
            return "";
        const auto eligible = [&](FieldId f) {
            const FieldId g =
                static_cast<FieldId>((f + 1) % static_cast<int>(nf));
            return !pointBounds(d, f) && !pointBounds(d, g);
        };
        struct Site
        {
            enum What
            {
                NodeField, TermField, CodeField
            } what;
            std::size_t idx;
        };
        std::vector<Site> sites;
        for (std::size_t i = 0; i < comp.programs.size(); ++i) {
            const CExpr &e = comp.programs[i];
            switch (e.kind) {
              case CExpr::Kind::Field:
              case CExpr::Kind::BinFC:
                if (eligible(e.field))
                    sites.push_back({Site::NodeField, i});
                break;
              case CExpr::Kind::Affine:
                for (std::uint32_t t = 0; t < e.count; ++t) {
                    const CTerm &term = comp.affinePool[e.first + t];
                    const bool live =
                        term.kind == CTerm::Kind::Linear ? term.a != 0
                                                         : true;
                    if (live && eligible(term.field))
                        sites.push_back({Site::TermField, e.first + t});
                }
                break;
              default:
                break;
            }
        }
        for (std::size_t i = 0; i < comp.code.size(); ++i) {
            if (comp.code[i].op == Op::Field &&
                eligible(comp.code[i].arg))
                sites.push_back({Site::CodeField, i});
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        const auto shift = [&](FieldId f) {
            return static_cast<FieldId>((f + 1) %
                                        static_cast<int>(nf));
        };
        switch (s.what) {
          case Site::NodeField:
            comp.programs[s.idx].field =
                shift(comp.programs[s.idx].field);
            break;
          case Site::TermField:
            comp.affinePool[s.idx].field =
                shift(comp.affinePool[s.idx].field);
            break;
          case Site::CodeField:
            comp.code[s.idx].arg = shift(comp.code[s.idx].arg);
            break;
        }
        return tag("shifted a field operand to its neighbour");
      }

      case Miscompile::PresummedCyclesOffByOne: {
        if (comp.runs.empty())
            return "";
        const std::size_t r = pickSite(seed, comp.runs.size());
        comp.runs[r].cycles += 1;
        return tag("bumped the cycle presum of run " +
                   std::to_string(r));
      }

      case Miscompile::SlotDwellCorrupt: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.slots.size(); ++i)
            if (comp.slots[i].prog < 0)
                sites.push_back(i);
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.slots[i].cycles += 1;
        return tag("bumped the static dwell of slot " +
                   std::to_string(i));
      }

      case Miscompile::SlotEnergyCorrupt: {
        if (comp.slots.empty())
            return "";
        const std::size_t i = pickSite(seed, comp.slots.size());
        comp.slots[i].energy += 0.5;
        return tag("perturbed the energy addend/rate of slot " +
                   std::to_string(i));
      }

      case Miscompile::AddendCorrupt: {
        if (comp.addendPool.empty())
            return "";
        const std::size_t k = pickSite(seed, comp.addendPool.size());
        comp.addendPool[k] += 1.0;
        return tag("perturbed dense energy addend " +
                   std::to_string(k));
      }

      case Miscompile::SegmentRerouted: {
        struct Site
        {
            std::size_t idx;
            StateId repl;
        };
        std::vector<Site> sites;
        for (std::size_t f = 0; f < comp.cfsms.size(); ++f) {
            const auto &cf = comp.cfsms[f];
            for (std::uint32_t s = 0; s < cf.numStates; ++s) {
                const std::size_t g = cf.firstState + s;
                const StateId old = comp.segs[g].next;
                const StateId repl = static_cast<StateId>(
                    old < 0 ? 0
                            : (old + 1) %
                                  static_cast<StateId>(cf.numStates));
                if (repl != old)
                    sites.push_back({g, repl});
            }
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        comp.segs[s.idx].next = s.repl;
        return tag("repointed segment " + std::to_string(s.idx) +
                   "'s resume state");
      }

      case Miscompile::TraceMisroute: {
        for (std::size_t f = 0; f < comp.traces.size(); ++f) {
            if (comp.traces[f].valid) {
                comp.traces[f].valid = false;
                return tag("demoted lockstep FSM " + std::to_string(f) +
                           " to the scalar path");
            }
        }
        if (comp.traces.empty())
            return "";
        comp.traces[0].valid = true;
        return tag("promoted branch-dynamic FSM 0 to lockstep");
      }

      case Miscompile::TraceCycleSkew: {
        std::vector<std::size_t> sites;
        for (std::size_t f = 0; f < comp.traces.size(); ++f)
            if (comp.traces[f].valid)
                sites.push_back(f);
        if (sites.empty())
            return "";
        const std::size_t f = sites[pickSite(seed, sites.size())];
        comp.traces[f].staticCycles += 1;
        return tag("skewed the presummed cycles of lockstep FSM " +
                   std::to_string(f));
      }

      case Miscompile::GuardDropped: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.trans.size(); ++i)
            if (comp.trans[i].guard >= 0)
                sites.push_back(i);
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.trans[i].guard = -1;
        return tag("dropped the guard of transition " +
                   std::to_string(i));
      }

      case Miscompile::TransitionRetarget: {
        struct Site
        {
            std::size_t idx;
            StateId repl;
        };
        std::vector<Site> sites;
        for (std::size_t f = 0; f < comp.cfsms.size(); ++f) {
            const auto &cf = comp.cfsms[f];
            if (cf.numStates < 2)
                continue;
            for (std::uint32_t s = 0; s < cf.numStates; ++s) {
                const auto &cs = comp.states[cf.firstState + s];
                for (std::uint32_t t = 0; t < cs.numTrans; ++t) {
                    const std::size_t idx = cs.firstTrans + t;
                    const StateId repl = static_cast<StateId>(
                        (comp.trans[idx].dst + 1) %
                        static_cast<StateId>(cf.numStates));
                    sites.push_back({idx, repl});
                }
            }
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        comp.trans[s.idx].dst = s.repl;
        return tag("retargeted transition " + std::to_string(s.idx));
      }

      case Miscompile::StateEnergyCorrupt: {
        if (comp.states.empty())
            return "";
        const std::size_t i = pickSite(seed, comp.states.size());
        comp.states[i].energyPerCycle += 0.25;
        return tag("perturbed the energy rate of state " +
                   std::to_string(i));
      }

      case Miscompile::FixedDwellCorrupt: {
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < comp.states.size(); ++i)
            if (comp.states[i].kind == LatencyKind::Fixed)
                sites.push_back(i);
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.states[i].fixedDwell += 1;
        return tag("bumped the fixed dwell of state " +
                   std::to_string(i));
      }

      case Miscompile::JobOverheadCorrupt:
        comp.jobOverhead += 1;
        return tag("bumped the per-job overhead cycles");

      case Miscompile::SpecRetarget: {
        struct Site
        {
            std::size_t idx;
            StateId repl;
        };
        std::vector<Site> sites;
        for (std::size_t f = 0; f < comp.specTraces.size(); ++f) {
            const auto &sp = comp.specTraces[f];
            if (!sp.valid)
                continue;
            const auto &cf = comp.cfsms[f];
            if (cf.numStates < 2)
                continue;
            for (std::uint32_t k = 0; k < sp.count; ++k) {
                const std::size_t idx = sp.first + k;
                const auto &nd = comp.specNodes[idx];
                if (!nd.branch)
                    continue;
                const StateId repl = static_cast<StateId>(
                    (nd.takenDst + 1) %
                    static_cast<StateId>(cf.numStates));
                if (repl != nd.takenDst)
                    sites.push_back({idx, repl});
            }
        }
        if (sites.empty())
            return "";
        const Site &s = sites[pickSite(seed, sites.size())];
        comp.specNodes[s.idx].takenDst = s.repl;
        return tag("retargeted the taken edge of speculative node " +
                   std::to_string(s.idx));
      }

      case Miscompile::SpecPredictFlip: {
        std::vector<std::size_t> sites;
        for (std::size_t f = 0; f < comp.specTraces.size(); ++f) {
            const auto &sp = comp.specTraces[f];
            if (!sp.valid)
                continue;
            for (std::uint32_t k = 0; k < sp.count; ++k)
                if (comp.specNodes[sp.first + k].branch)
                    sites.push_back(sp.first + k);
        }
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.specNodes[i].predictTaken = !comp.specNodes[i].predictTaken;
        return tag("flipped the predicted outcome of speculative "
                   "node " + std::to_string(i));
      }

      case Miscompile::SpecCycleSkew: {
        std::vector<std::size_t> sites;
        for (std::size_t f = 0; f < comp.specTraces.size(); ++f) {
            const auto &sp = comp.specTraces[f];
            if (!sp.valid)
                continue;
            for (std::uint32_t k = 0; k < sp.count; ++k)
                if (!comp.specNodes[sp.first + k].branch)
                    sites.push_back(sp.first + k);
        }
        if (sites.empty())
            return "";
        const std::size_t i = sites[pickSite(seed, sites.size())];
        comp.specNodes[i].cycles += 1;
        return tag("skewed the presummed cycles of speculative "
                   "sweep node " + std::to_string(i));
      }
    }
    return "";
}

} // namespace rtl
} // namespace predvfs
