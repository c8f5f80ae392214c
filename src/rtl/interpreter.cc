#include "rtl/interpreter.hh"

#include <algorithm>

#include "rtl/compile.hh"
#include "util/logging.hh"

namespace predvfs {
namespace rtl {

using util::panicIf;

Interpreter::Interpreter(const Design &design)
    : comp(), owned(std::make_shared<CompiledDesign>(design))
{
    comp = owned;
}

Interpreter::Interpreter(std::shared_ptr<const CompiledDesign> compiled)
    : comp(std::move(compiled))
{
    panicIf(!comp, "Interpreter: null compiled design");
}

bool
Interpreter::speculate(const std::vector<JobInput> &jobs) const
{
    if (!owned)
        return false;
    owned->speculate(jobs);
    return true;
}

Interpreter::~Interpreter() = default;

const Design &
Interpreter::design() const
{
    return comp->design();
}

JobResult
Interpreter::run(const JobInput &job, Recorder *recorder,
                 std::vector<std::uint64_t> *item_cycles) const
{
    return comp->run(job, recorder, item_cycles);
}

std::uint64_t
Interpreter::runFsm(FsmId id, std::span<const std::int64_t> fields,
                    Recorder *recorder, double &energy_units) const
{
    const Design &dsn = comp->design();
    const Fsm &fsm = dsn.fsms()[id];
    const auto &counters = dsn.counters();
    const auto &blocks = dsn.blocks();

    std::uint64_t cycles = 0;
    std::size_t visits = 0;
    StateId cur = fsm.initial;

    while (true) {
        panicIf(++visits > maxVisitsPerItem,
                "fsm '", fsm.name, "' exceeded ", maxVisitsPerItem,
                " state visits on one item (runaway control loop)");

        const State &st = fsm.states[cur];

        std::uint64_t dwell = 1;
        switch (st.kind) {
          case LatencyKind::Fixed:
            dwell = static_cast<std::uint64_t>(st.fixedCycles);
            break;
          case LatencyKind::CounterWait: {
            const Counter &c = counters[st.counter];
            std::int64_t range = c.range->eval(fields);
            if (range < 1)
                range = 1;
            // An arm-only state (slicer output) computes the counter's
            // range in one cycle without waiting it out; waitScale > 1
            // models an HLS-compressed wait. The recorder always sees
            // the full range either way.
            if (st.armOnly) {
                dwell = 1;
            } else if (st.waitScale > 1) {
                const std::int64_t scaled = range / st.waitScale;
                dwell = static_cast<std::uint64_t>(
                    scaled < 1 ? 1 : scaled);
            } else {
                dwell = static_cast<std::uint64_t>(range);
            }
            if (recorder) {
                if (c.dir == CounterDir::Down)
                    recorder->onCounterArm(st.counter, range, 0);
                else
                    recorder->onCounterArm(st.counter, 0, range);
            }
            break;
          }
          case LatencyKind::Implicit: {
            std::int64_t lat = st.implicitLatency->eval(fields);
            if (lat < 1)
                lat = 1;
            dwell = static_cast<std::uint64_t>(lat);
            break;
          }
        }

        cycles += dwell;

        double per_cycle = dsn.controlEnergyPerCycle();
        if (st.block >= 0)
            per_cycle += st.dpOpsPerCycle * blocks[st.block].energyWeight;
        energy_units += per_cycle * static_cast<double>(dwell);

        if (st.terminal)
            break;

        StateId next = -1;
        for (const auto &t : st.transitions) {
            if (!t.guard || t.guard->eval(fields) != 0) {
                next = t.dst;
                break;
            }
        }
        panicIf(next < 0,
                "state '", st.name, "' in fsm '", fsm.name,
                "': no transition fired");

        if (recorder)
            recorder->onTransition(id, cur, next);
        cur = next;
    }

    return cycles;
}

JobResult
Interpreter::runReference(const JobInput &job, Recorder *recorder,
                          std::vector<std::uint64_t> *item_cycles) const
{
    const Design &dsn = comp->design();

    JobResult result;
    result.cycles = dsn.perJobOverheadCycles();
    result.energyUnits = dsn.controlEnergyPerCycle() *
        static_cast<double>(dsn.perJobOverheadCycles());

    if (item_cycles) {
        item_cycles->clear();
        item_cycles->reserve(job.items.size());
    }

    const auto &fsms = dsn.fsms();
    const auto &order = comp->topoOrder();
    std::vector<std::uint64_t> end_time(fsms.size(), 0);

    for (const auto &item : job.items) {
        std::fill(end_time.begin(), end_time.end(), 0);
        std::uint64_t item_latency = 0;

        for (FsmId id : order) {
            const FsmId dep = fsms[id].startAfter;
            const std::uint64_t start = dep < 0 ? 0 : end_time[dep];
            const std::uint64_t lat =
                runFsm(id, item.fields, recorder, result.energyUnits);
            end_time[id] = start + lat;
            item_latency = std::max(item_latency, end_time[id]);
        }

        result.cycles += item_latency;
        if (item_cycles)
            item_cycles->push_back(item_latency);
    }

    return result;
}

} // namespace rtl
} // namespace predvfs
