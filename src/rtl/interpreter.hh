/**
 * @file
 * Event-driven RTL interpreter.
 *
 * Executes a validated Design over a JobInput and reports the job's
 * cycle count and energy activity. The interpreter is exact at the
 * granularity the prediction framework needs: state dwell times are
 * computed in closed form and skipped over rather than ticked cycle by
 * cycle, which keeps full-workload simulation fast while producing the
 * same cycle counts a cycle-stepped simulation of the IR would.
 *
 * Construction lowers the design to bytecode (rtl/compile.hh); run()
 * executes the compiled form. The original tree-walking evaluator is
 * retained as runReference() — a slower oracle the differential tests
 * hold the compiled path bit-for-bit equal to.
 *
 * An optional Recorder observes the architectural events the paper's
 * instrumentation registers watch: FSM transitions and counter arms.
 */

#ifndef PREDVFS_RTL_INTERPRETER_HH
#define PREDVFS_RTL_INTERPRETER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rtl/design.hh"

namespace predvfs {
namespace rtl {

/**
 * Observer interface for instrumentation.
 *
 * The callbacks correspond exactly to the events the paper's
 * instrumented RTL records into added registers (Section 3.3).
 */
class Recorder
{
  public:
    virtual ~Recorder() = default;

    /** An FSM moved from state @p src to state @p dst. */
    virtual void onTransition(FsmId fsm, StateId src, StateId dst) = 0;

    /**
     * A counter was armed for a wait.
     *
     * @param counter     The counter that was armed.
     * @param init_value  Register value right after initialisation
     *                    (the range for down-counters, 0 for up).
     * @param final_value Register value right before the reset that
     *                    ends the wait (0 for down, the range for up).
     */
    virtual void onCounterArm(CounterId counter, std::int64_t init_value,
                              std::int64_t final_value) = 0;
};

/** Result of interpreting one job. */
struct JobResult
{
    std::uint64_t cycles = 0;    //!< Total cycles at the design's clock.
    double energyUnits = 0.0;    //!< Activity-weighted energy units.
};

class CompiledDesign;

/**
 * Interprets jobs against one design. Construction compiles the design
 * once (expression bytecode + FSM start order); run() is const and
 * reentrant, so one interpreter can serve any number of threads.
 */
class Interpreter
{
  public:
    /** @param design Must outlive the interpreter and be validated. */
    explicit Interpreter(const Design &design);

    /**
     * Share an already-compiled design (e.g. the engine's cached one)
     * instead of compiling again.
     */
    explicit Interpreter(std::shared_ptr<const CompiledDesign> compiled);

    ~Interpreter();

    /**
     * Execute one job on the compiled design.
     *
     * @param job           The work items to process.
     * @param recorder      Optional instrumentation observer.
     * @param item_cycles   Optional per-item latency output.
     */
    JobResult run(const JobInput &job, Recorder *recorder = nullptr,
                  std::vector<std::uint64_t> *item_cycles = nullptr) const;

    /**
     * Execute one job by walking the expression trees — the reference
     * oracle the bytecode path is differentially tested against.
     * Produces identical results to run(), only slower.
     */
    JobResult
    runReference(const JobInput &job, Recorder *recorder = nullptr,
                 std::vector<std::uint64_t> *item_cycles = nullptr) const;

    /** @return the design being interpreted. */
    const Design &design() const;

    /** @return the shared compiled form (for engines to cache). */
    const std::shared_ptr<const CompiledDesign> &compiled() const
    {
        return comp;
    }

    /**
     * Build speculative lockstep routes for branch-dynamic FSMs from
     * a one-pass profile of @p jobs (CompiledDesign::speculate).
     * Results are bit-identical either way; only batch throughput
     * changes. Only legal on an interpreter that compiled the design
     * itself — returns false (no-op) when the compiled form was
     * shared in from outside, since other owners may be running it.
     * Not thread-safe against concurrent run()/runBatch() calls on
     * the same compiled design; callers serialise (e.g. call_once).
     */
    bool speculate(const std::vector<JobInput> &jobs) const;

    /** Upper bound on state visits per FSM per item before panicking. */
    static constexpr std::size_t maxVisitsPerItem = 100000;

  private:
    /** Tree-walk one FSM over one item; returns its latency in cycles. */
    std::uint64_t runFsm(FsmId id, std::span<const std::int64_t> fields,
                         Recorder *recorder, double &energy_units) const;

    std::shared_ptr<const CompiledDesign> comp;
    //! Non-const view of `comp` when this interpreter compiled the
    //! design itself (speculate() retunes it in place); null when the
    //! compiled form was shared in from outside.
    std::shared_ptr<CompiledDesign> owned;
};

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_INTERPRETER_HH
