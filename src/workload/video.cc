#include "workload/video.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "accel/h264.hh"
#include "util/logging.hh"

namespace predvfs {
namespace workload {

std::vector<VideoProfile>
figure2Profiles()
{
    return {
        {"coastguard", 0.85, 0.75, 1.0 / 220.0, 30},
        {"foreman", 0.55, 0.55, 1.0 / 160.0, 30},
        {"news", 0.15, 0.40, 1.0 / 400.0, 30},
    };
}

std::vector<VideoProfile>
trainSetProfiles()
{
    return {
        {"train_busride", 0.70, 0.65, 1.0 / 180.0, 30},
        {"train_weather", 0.25, 0.45, 1.0 / 300.0, 30},
    };
}

std::vector<VideoProfile>
testSetProfiles()
{
    auto profiles = figure2Profiles();
    profiles.push_back({"mobile", 0.75, 0.90, 1.0 / 200.0, 30});
    profiles.push_back({"akiyo", 0.08, 0.35, 1.0 / 500.0, 30});
    return profiles;
}

namespace {

double
clamp01(double x)
{
    return std::min(1.0, std::max(0.0, x));
}

std::int64_t
clampI(double x, std::int64_t lo, std::int64_t hi)
{
    const auto v = static_cast<std::int64_t>(std::llround(x));
    return std::min(hi, std::max(lo, v));
}

} // namespace

std::vector<rtl::JobInput>
makeVideoClip(const rtl::Design &design, const VideoProfile &profile,
              int frames, int mbs_per_frame, util::Rng rng)
{
    util::panicIf(frames <= 0 || mbs_per_frame <= 0,
                  "makeVideoClip: empty clip");
    const accel::H264Fields f = accel::h264Fields(design);
    const std::size_t num_fields = design.numFields();

    std::vector<rtl::JobInput> clip;
    clip.reserve(static_cast<std::size_t>(frames));

    // Scene state: drifts within a scene, redrawn at scene changes.
    double scene_motion = profile.motion;
    double scene_texture = profile.texture;
    // Frame-to-frame complexity follows an AR(1) walk within a scene.
    double complexity = 0.5;
    int frames_since_intra = 0;

    for (int frame = 0; frame < frames; ++frame) {
        bool scene_change = rng.bernoulli(profile.sceneChangeProb);
        if (scene_change) {
            scene_motion =
                clamp01(profile.motion + rng.normal(0.0, 0.25));
            scene_texture =
                clamp01(profile.texture + rng.normal(0.0, 0.20));
            complexity = clamp01(0.5 + rng.normal(0.0, 0.2));
        }
        complexity = clamp01(0.90 * complexity +
                             0.10 * (0.35 + 0.5 * scene_motion) +
                             rng.normal(0.0, 0.035));

        const bool intra_frame = scene_change ||
            frames_since_intra >= profile.gopLength - 1;
        frames_since_intra = intra_frame ? 0 : frames_since_intra + 1;

        rtl::JobInput job;
        job.items.reserve(static_cast<std::size_t>(mbs_per_frame),
                          static_cast<std::size_t>(mbs_per_frame) *
                              num_fields);

        for (int mb = 0; mb < mbs_per_frame; ++mb) {
            const std::span<std::int64_t> fields =
                job.items.appendItem(num_fields);

            std::int64_t mb_type;
            if (intra_frame) {
                // I-frame: everything intra, mostly I4x4.
                mb_type = rng.bernoulli(0.72) ? 1 : 0;
            } else {
                const double p_skip =
                    clamp01(0.52 - 0.38 * scene_motion);
                const double p_p8 = 0.12 + 0.30 * scene_motion;
                const double p_intra =
                    0.015 + 0.04 * scene_motion * complexity;
                const std::size_t pick = rng.categorical(
                    {p_skip, 1.0 - p_skip - p_p8 - p_intra, p_p8,
                     p_intra});
                mb_type = pick == 0 ? 4 : pick == 1 ? 2 : pick == 3 ?
                    (rng.bernoulli(0.6) ? 1 : 0) : 3;
            }
            fields[f.mbType] = mb_type;

            const bool is_intra = mb_type <= 1;
            const bool is_skip = mb_type == 4;

            // Residual statistics: intra macroblocks carry far more
            // coefficients; skips carry none.
            std::int64_t coeff = 0;
            if (is_skip) {
                coeff = 0;
            } else if (is_intra) {
                coeff = clampI(
                    rng.normal(120.0 + 160.0 * scene_texture, 45.0), 8,
                    384);
            } else {
                coeff = clampI(
                    rng.normal(25.0 + 120.0 * complexity *
                                   scene_texture,
                               22.0),
                    0, 384);
            }
            fields[f.coeffCount] = coeff;
            fields[f.cbpBlocks] =
                std::min<std::int64_t>(24, (coeff + 9) / 12);

            if (!is_intra && !is_skip) {
                const double p_quarter =
                    clamp01(0.22 + 0.45 * scene_motion);
                const double p_half = 0.30;
                const std::size_t pick = rng.categorical(
                    {1.0 - p_quarter - p_half, p_half, p_quarter});
                fields[f.mvFrac] = static_cast<std::int64_t>(pick);
                fields[f.refParts] =
                    mb_type == 3 ? (rng.bernoulli(0.5) ? 4 : 2) : 1;
            } else if (is_skip) {
                fields[f.mvFrac] = 0;
                fields[f.refParts] = 1;
            }

            std::int64_t edges = 4 + fields[f.cbpBlocks] * 3 / 2;
            if (is_intra)
                edges += 10;
            fields[f.deblockEdges] = std::min<std::int64_t>(
                48, is_skip ? 0 : edges);

        }
        clip.push_back(std::move(job));
    }
    return clip;
}

} // namespace workload
} // namespace predvfs
