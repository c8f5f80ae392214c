#include "workloads.hh"

#include <algorithm>
#include <cmath>

#include "accel/registry.hh"
#include "params.hh"
#include "sim/job_cache.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "workload/suite.hh"

namespace perfbench {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t salt, std::uint64_t index)
{
    return splitmix64(splitmix64(splitmix64(base) ^ salt) + index);
}

std::vector<double>
poissonSchedule(std::uint64_t seed, double rate_per_s, double seconds)
{
    predvfs::util::Rng rng(seed);
    std::vector<double> due;
    due.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
    double t = 0.0;
    for (;;) {
        // 1 - u is in (0, 1], so the log is finite.
        t += -std::log(1.0 - rng.uniform()) / rate_per_s;
        if (t >= seconds)
            break;
        due.push_back(t);
    }
    return due;
}

std::vector<std::uint32_t>
streamMix(std::uint64_t seed, std::size_t n, double share_of_second)
{
    predvfs::util::Rng rng(seed);
    std::vector<std::uint32_t> mix(n);
    for (std::uint32_t &stream : mix)
        stream = rng.bernoulli(share_of_second) ? 1 : 0;
    return mix;
}

std::uint64_t
jobHash(const JobInput &job)
{
    return predvfs::sim::JobCache::hashJob(0, job);
}

UniqueJobSource::UniqueJobSource(
    std::shared_ptr<const predvfs::accel::Accelerator> accelerator,
    std::uint64_t seed)
    : accel(std::move(accelerator)), baseSeed(seed)
{}

std::vector<JobInput>
UniqueJobSource::take(std::size_t n, predvfs::util::ThreadPool *pool)
{
    std::vector<JobInput> out;
    out.reserve(n);
    while (out.size() < n) {
        if (pendingPos == pending.size()) {
            const unsigned batch = pool ? pool->workerSlots() : 1;
            std::vector<std::vector<JobInput>> streams(batch);
            const auto make = [&](unsigned, std::size_t i) {
                streams[i] = predvfs::workload::makeWorkload(
                                 *accel, deriveSeed(baseSeed, 0x756e69,
                                                    nextSeedIndex + i))
                                 .test;
            };
            if (pool)
                pool->run(batch, make);
            else
                make(0, 0);
            nextSeedIndex += batch;
            pending.clear();
            pendingPos = 0;
            for (auto &stream : streams)
                for (JobInput &job : stream)
                    pending.push_back(std::move(job));
        }
        JobInput &job = pending[pendingPos++];
        // A hash collision skips a distinct job, which keeps the
        // never-repeat guarantee without storing whole keys.
        if (seen.insert(jobHash(job)).second)
            out.push_back(std::move(job));
    }
    return out;
}

std::vector<std::uint64_t>
gridSeeds()
{
    std::vector<std::uint64_t> seeds;
    for (int k = 0; k < kGridSeeds; ++k)
        seeds.push_back(predvfs::workload::defaultSeed +
                        static_cast<std::uint64_t>(k));
    return seeds;
}

std::vector<SweepCell>
sweepCells(std::uint64_t run_seed)
{
    std::vector<SweepCell> cells;
    for (const std::string &bench : predvfs::accel::benchmarkNames())
        for (const std::uint64_t seed : gridSeeds())
            for (const double deadline : kDeadlineFactors)
                for (const double sw : kSwitchMicros)
                    cells.push_back({bench, seed, deadline, sw});
    // Fisher-Yates under the run seed: the seed picks the order in
    // which cells (and so shared streams and cache entries) are built.
    predvfs::util::Rng rng(deriveSeed(run_seed, 0x6f72646572, 0));
    for (std::size_t i = cells.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(cells[i - 1], cells[j]);
    }
    return cells;
}

} // namespace perfbench
