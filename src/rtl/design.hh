/**
 * @file
 * The RTL intermediate representation of a hardware accelerator.
 *
 * A Design models exactly the structures the paper's flow consumes:
 *
 *  - a control unit made of one or more finite state machines whose
 *    transitions are guarded by expressions over the current work
 *    item's fields;
 *  - hardware counters that hold an FSM in a state for an
 *    input-dependent number of cycles (down-counters initialised to a
 *    range, or up-counters that run until a limit);
 *  - datapath blocks attached to states, which carry the area and
 *    energy of the "real work" but do not influence control flow;
 *  - "implicit latency" states whose duration varies with the input
 *    but is not observable through any counter. These are the
 *    unmodellable variance sources the paper blames for the JPEG
 *    decoder's higher prediction error.
 *
 * A job is a sequence of work items (e.g. macroblocks of a frame, MCUs
 * of an image, particles of a timestep). Per item, every FSM walks from
 * its initial state to a terminal state; FSMs run concurrently unless
 * ordered with startAfter().
 */

#ifndef PREDVFS_RTL_DESIGN_HH
#define PREDVFS_RTL_DESIGN_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rtl/expr.hh"
#include "util/logging.hh"

namespace predvfs {
namespace rtl {

using StateId = int;
using CounterId = int;
using FsmId = int;
using BlockId = int;

/**
 * One unit of input consumed by the accelerator (all-integer fields),
 * as a standalone value: how a single item is built before it is
 * appended to a job (JobItems::push_back).
 */
struct WorkItem
{
    std::vector<std::int64_t> fields;
};

/** One item inside a JobItems: its fields, in place. */
template <typename T>
struct ItemView
{
    std::span<T> fields;
};

/**
 * A job's work items stored flat (compressed rows): every item's
 * fields back to back in one value buffer, plus each item's end offset
 * into it. A job of n items costs two allocations instead of n + 1,
 * and 4 bytes per item instead of a vector header and a heap block.
 *
 * Items may be ragged (any field count, zero included); the executors
 * check each item's arity against the design. Element access yields
 * an ItemView whose span stays valid until the next append.
 */
class JobItems
{
  public:
    using Item = ItemView<std::int64_t>;
    using ConstItem = ItemView<const std::int64_t>;

    /** Iterator over items; tracks the current item's first value. */
    template <typename Ref, typename Value>
    class Iter
    {
      public:
        Iter(Value *values, const std::uint32_t *ends, std::size_t first)
            : vals(values), end(ends), start(first)
        {}

        Ref
        operator*() const
        {
            return {{vals + start, *end - start}};
        }

        Iter &
        operator++()
        {
            start = *end++;
            return *this;
        }

        bool operator==(const Iter &o) const { return end == o.end; }

      private:
        Value *vals;
        const std::uint32_t *end;
        std::size_t start;
    };

    using iterator = Iter<Item, std::int64_t>;
    using const_iterator = Iter<ConstItem, const std::int64_t>;

    std::size_t size() const { return ends.size(); }
    bool empty() const { return ends.empty(); }

    Item
    operator[](std::size_t i)
    {
        return {{values.data() + first(i), ends[i] - first(i)}};
    }

    ConstItem
    operator[](std::size_t i) const
    {
        return {{values.data() + first(i), ends[i] - first(i)}};
    }

    iterator begin() { return {values.data(), ends.data(), 0}; }
    iterator
    end()
    {
        return {values.data(), ends.data() + ends.size(), 0};
    }
    const_iterator
    begin() const
    {
        return {values.data(), ends.data(), 0};
    }
    const_iterator
    end() const
    {
        return {values.data(), ends.data() + ends.size(), 0};
    }

    /** Reserve room for @p items items holding @p fields values. */
    void
    reserve(std::size_t items, std::size_t fields)
    {
        ends.reserve(items);
        values.reserve(fields);
    }

    void
    clear()
    {
        ends.clear();
        values.clear();
    }

    /**
     * Append one item of @p num_fields zero fields.
     * @return its fields, writable until the next append.
     */
    std::span<std::int64_t>
    appendItem(std::size_t num_fields)
    {
        const std::size_t at = values.size();
        util::panicIf(num_fields > UINT32_MAX - at,
                      "JobItems: more than 2^32 - 1 field values");
        values.resize(at + num_fields);
        ends.push_back(static_cast<std::uint32_t>(at + num_fields));
        return {values.data() + at, num_fields};
    }

    /** Append a copy of @p item. */
    void
    push_back(const WorkItem &item)
    {
        const std::span<std::int64_t> f = appendItem(item.fields.size());
        std::copy(item.fields.begin(), item.fields.end(), f.begin());
    }

    /** Every item's fields, back to back. */
    std::span<const std::int64_t> fieldValues() const { return values; }

    bool operator==(const JobItems &o) const = default;

  private:
    std::size_t
    first(std::size_t i) const
    {
        return i == 0 ? 0 : ends[i - 1];
    }

    std::vector<std::int64_t> values;
    std::vector<std::uint32_t> ends;
};

/**
 * Declared value bounds of one work-item field (inclusive). The lint
 * pass interprets guard/range/latency expressions over these intervals;
 * an undeclared field defaults to the full int64 range, which keeps the
 * analysis sound but proves little — declare bounds for precise lints.
 */
struct FieldBounds
{
    std::int64_t lo;
    std::int64_t hi;
};

/** The complete input of one job (one deadline-bearing invocation). */
struct JobInput
{
    JobItems items;

    bool operator==(const JobInput &o) const = default;
};

/** Direction of a hardware counter. */
enum class CounterDir
{
    Down,  //!< Initialised to range, decremented to zero.
    Up     //!< Initialised to zero, incremented until it reaches range.
};

/**
 * A hardware counter. The range expression gives, per work item, the
 * number of cycles an FSM waits in the state that arms this counter.
 */
struct Counter
{
    std::string name;
    CounterDir dir = CounterDir::Down;
    ExprPtr range;     //!< Cycles to wait; clamped to >= 1 at run time.
    int bits = 16;     //!< Register width (area model).
};

/** How long an FSM dwells in a state. */
enum class LatencyKind
{
    Fixed,        //!< A constant number of cycles.
    CounterWait,  //!< Until the attached counter expires.
    Implicit      //!< Input-dependent, with no counter exposing it.
};

/** A guarded FSM edge; guards are tried in order, null guard = default. */
struct Transition
{
    ExprPtr guard;  //!< Null means "always taken" (the default edge).
    StateId dst = -1;
};

/**
 * One FSM state.
 *
 * A state marked essential() performs computation that produces the
 * work item's decoded fields (e.g. a bitstream parser). The slicer must
 * preserve its full latency; all other latency is elidable in a slice.
 */
struct State
{
    std::string name;
    LatencyKind kind = LatencyKind::Fixed;
    int fixedCycles = 1;          //!< For LatencyKind::Fixed.
    CounterId counter = -1;       //!< For LatencyKind::CounterWait.
    ExprPtr implicitLatency;      //!< For LatencyKind::Implicit.
    BlockId block = -1;           //!< Datapath block active here (-1 none).
    double dpOpsPerCycle = 0.0;   //!< Datapath activity while dwelling.
    bool essential = false;       //!< Latency must survive slicing.
    bool terminal = false;        //!< Item processing ends here.

    /**
     * Slicer-generated: the state still arms its counter (so the
     * instrumentation sees the init/pre-reset values) but dwells only
     * one cycle instead of waiting the counter out. This is the
     * paper's "remove empty waiting states" optimisation.
     */
    bool armOnly = false;

    /**
     * Slicer-generated (HLS mode): divide counter-wait dwell time by
     * this factor. The counter still records its full range, modelling
     * an HLS-rescheduled slice that computes the same feature values
     * in fewer cycles.
     */
    int waitScale = 1;

    /**
     * Work-item fields whose values are computed by this state's
     * datapath (e.g. a bitstream parser decoding the macroblock type).
     * A slice that consumes such a field must keep the producing FSM.
     */
    std::vector<FieldId> producesFields;

    std::vector<Transition> transitions;
};

/** A finite state machine inside the control unit. */
struct Fsm
{
    std::string name;
    std::vector<State> states;
    StateId initial = 0;
    FsmId startAfter = -1;  //!< Start once this FSM finished (-1: at once).
};

/** A datapath block: pure computation, no control influence. */
struct DatapathBlock
{
    std::string name;
    double areaWeight = 1.0;    //!< Relative area units.
    double energyWeight = 1.0;  //!< Energy per datapath op.

    /**
     * A shared memory (scratchpad) block: a slice that references it
     * accesses the accelerator's copy through time multiplexing
     * (paper Figure 5) instead of instantiating its own, so its area
     * is not charged to the slice.
     */
    bool shared = false;
};

/**
 * A full accelerator design.
 *
 * Build with the fluent builder methods, then call validate() once; the
 * interpreter and every analysis pass require a validated design.
 */
class Design
{
  public:
    explicit Design(std::string name);

    /** @name Builder interface */
    /// @{

    /** Declare a work-item field; returns its FieldId. */
    FieldId addField(const std::string &name);

    /**
     * Declare the inclusive value bounds of a field (lint hook). The
     * workload generator must honour them; the lint pass assumes them.
     */
    void setFieldRange(FieldId field, std::int64_t lo, std::int64_t hi);

    /** Declare a counter; returns its CounterId. */
    CounterId addCounter(const std::string &name, CounterDir dir,
                         ExprPtr range, int bits = 16);

    /** Declare a datapath block; returns its BlockId. */
    BlockId addBlock(const std::string &name, double area_weight,
                     double energy_weight, bool shared = false);

    /** Declare an FSM; returns its FsmId. States are added separately. */
    FsmId addFsm(const std::string &name, FsmId start_after = -1);

    /** Append a state to an FSM; returns its StateId. */
    StateId addState(FsmId fsm, State state);

    /** Append a transition (guard may be null for the default edge). */
    void addTransition(FsmId fsm, StateId src, ExprPtr guard, StateId dst);

    /** Set cycles charged once per job (DMA setup, drain, etc.). */
    void setPerJobOverheadCycles(std::uint64_t cycles);

    /** Control-logic energy units consumed per FSM-cycle. */
    void setControlEnergyPerCycle(double units);

    /**
     * Finish construction. Checks: every non-terminal state has a
     * default transition, targets are in range, counters referenced by
     * wait states exist, startAfter edges are acyclic, every state is
     * reachable, a terminal state is reachable from the initial state
     * of every FSM, and field/counter/FSM names (and state names within
     * an FSM) are unique so lookups and lint loci stay unambiguous.
     * panic()s on violation.
     */
    void validate();

    /// @}

    /** @name Read interface */
    /// @{
    const std::string &name() const { return designName; }
    const std::vector<std::string> &fieldNames() const { return fields; }

    /** Look up a field by name; panics if absent. */
    FieldId fieldIndex(const std::string &name) const;
    std::size_t numFields() const { return fields.size(); }

    /** Declared bounds per field (full int64 range if undeclared). */
    const std::vector<FieldBounds> &fieldBounds() const
    {
        return fieldLimits;
    }
    const std::vector<Counter> &counters() const { return counterDefs; }
    const std::vector<Fsm> &fsms() const { return fsmDefs; }
    const std::vector<DatapathBlock> &blocks() const { return blockDefs; }
    std::uint64_t perJobOverheadCycles() const { return jobOverhead; }
    double controlEnergyPerCycle() const { return ctrlEnergy; }
    bool validated() const { return isValidated; }

    /** Total number of states across all FSMs. */
    std::size_t totalStates() const;

    /** Total number of transitions across all FSMs. */
    std::size_t totalTransitions() const;

    /**
     * Structural area of the design in abstract units: control logic
     * (states, transitions, guard literals), counters (bits), and
     * datapath blocks. Scaled to um^2 by the accelerator wrapper.
     */
    double areaUnits() const;

    /** Area units of control logic + counters only (no datapath). */
    double controlAreaUnits() const;
    /// @}

  private:
    std::string designName;
    std::vector<std::string> fields;
    std::vector<FieldBounds> fieldLimits;
    std::vector<Counter> counterDefs;
    std::vector<Fsm> fsmDefs;
    std::vector<DatapathBlock> blockDefs;
    std::uint64_t jobOverhead = 0;
    double ctrlEnergy = 1.0;
    bool isValidated = false;
};

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_DESIGN_HH
