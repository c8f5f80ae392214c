/**
 * @file
 * Seeded inputs of every workload: job streams, request mixes, Poisson
 * arrival schedules and the sweep's cell order. Everything here is a
 * pure function of the run seed, so equal seeds give equal inputs and
 * the program under test sees only the generated jobs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "accel/accelerator.hh"
#include "rtl/design.hh"

namespace predvfs::util {
class ThreadPool;
}

namespace perfbench {

using predvfs::rtl::JobInput;

/** Independent 64-bit seed for (@p base, @p salt, @p index). */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t salt,
                         std::uint64_t index);

/** Due times (seconds from the rung start) of a Poisson process at
 *  @p rate_per_s over @p seconds. */
std::vector<double> poissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double seconds);

/** Stream index (0 or 1) of each of @p n requests; stream 1 is picked
 *  with probability @p share_of_second. */
std::vector<std::uint32_t> streamMix(std::uint64_t seed, std::size_t n,
                                     double share_of_second);

/** Content hash of a job, independent of any stream. */
std::uint64_t jobHash(const JobInput &job);

/**
 * Distinct jobs of one benchmark: the test streams of
 * workload::makeWorkload under successive seeds derived from the run
 * seed, with any job seen before skipped. take() never returns a job
 * (by content hash) that an earlier take() on the same source returned.
 */
class UniqueJobSource
{
  public:
    UniqueJobSource(std::shared_ptr<const predvfs::accel::Accelerator>
                        accelerator,
                    std::uint64_t seed);

    /** The next @p n distinct jobs. Seeds are generated @p pool's
     *  worker count at a time (in parallel) and consumed in order. */
    std::vector<JobInput> take(std::size_t n,
                               predvfs::util::ThreadPool *pool = nullptr);

  private:
    std::shared_ptr<const predvfs::accel::Accelerator> accel;
    std::uint64_t baseSeed;
    std::uint64_t nextSeedIndex = 0;
    std::vector<JobInput> pending;
    std::size_t pendingPos = 0;
    std::unordered_set<std::uint64_t> seen;
};

/** One cell of the sweep grid. */
struct SweepCell
{
    std::string benchmark;
    std::uint64_t gridSeed = 0;
    double deadlineFactor = 1.0;
    double switchMicros = 100.0;
};

/** The fixed grid (benchmarks x grid seeds x deadlines x switch times)
 *  in the order the run seed permutes it to. */
std::vector<SweepCell> sweepCells(std::uint64_t run_seed);

/** Workload seeds of the grid: the paper's default seed and its
 *  successors. Fixed, so the figure metrics of every run are computed
 *  on the same evaluation set. */
std::vector<std::uint64_t> gridSeeds();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
