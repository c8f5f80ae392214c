#include "workload/particles.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "accel/md.hh"
#include "util/logging.hh"

namespace predvfs {
namespace workload {

std::vector<rtl::JobInput>
makeMdTimesteps(const rtl::Design &design, const MdTraceOptions &options,
                util::Rng rng)
{
    util::panicIf(options.steps <= 0 || options.particles <= 0,
                  "makeMdTimesteps: empty trace");
    const accel::MdFields f = accel::mdFields(design);
    const std::size_t num_fields = design.numFields();

    std::vector<rtl::JobInput> trace;
    trace.reserve(static_cast<std::size_t>(options.steps));

    // Density follows a mean-reverting walk; cluster events jump it
    // up and dissipation events collapse it for short bursts — the
    // spiky, fast-changing behaviour that defeats reactive control.
    const double density_mean =
        0.42 * (options.minDensity + options.maxDensity);
    double density = density_mean;
    int cluster_steps_left = 0;
    int dissipate_steps_left = 0;

    for (int step = 0; step < options.steps; ++step) {
        if (cluster_steps_left > 0) {
            --cluster_steps_left;
        } else if (dissipate_steps_left > 0) {
            --dissipate_steps_left;
            density = std::max(options.minDensity, density * 0.85);
        } else if (rng.bernoulli(options.clusterProb)) {
            cluster_steps_left =
                static_cast<int>(rng.burstLength(0.6, 8));
            density += options.clusterJump;
        } else if (rng.bernoulli(0.03)) {
            dissipate_steps_left =
                static_cast<int>(rng.burstLength(0.7, 12));
            density *= 0.4;
        }
        density += 0.08 * (density_mean - density) +
            rng.normal(0.0, options.walkSigma);
        density = std::min(options.maxDensity,
                           std::max(options.minDensity, density));

        rtl::JobInput job;
        job.items.reserve(static_cast<std::size_t>(options.particles),
                          static_cast<std::size_t>(options.particles) *
                              num_fields);
        for (int p = 0; p < options.particles; ++p) {
            const std::span<std::int64_t> fields =
                job.items.appendItem(num_fields);
            const double n =
                rng.normal(density, std::sqrt(density) * 1.2);
            fields[f.neighbors] = std::max<std::int64_t>(
                0, std::min<std::int64_t>(
                       static_cast<std::int64_t>(
                           options.maxDensity * 1.5),
                       static_cast<std::int64_t>(std::llround(n))));
        }
        trace.push_back(std::move(job));
    }
    return trace;
}

} // namespace workload
} // namespace predvfs
