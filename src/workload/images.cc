#include "workload/images.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "accel/cjpeg.hh"
#include "accel/djpeg.hh"
#include "accel/stencil.hh"
#include "util/logging.hh"

namespace predvfs {
namespace workload {

namespace {

std::int64_t
clampI(double x, std::int64_t lo, std::int64_t hi)
{
    const auto v = static_cast<std::int64_t>(std::llround(x));
    return std::min(hi, std::max(lo, v));
}

struct ImageShape
{
    int width = 0;
    int height = 0;
    double complexity = 0.0;
    bool chromaSub = false;
};


ImageShape
drawImage(const ImageCorpusOptions &options, util::Rng &rng)
{
    util::panicIf(options.sizes.empty(), "image corpus has no sizes");
    ImageShape shape;
    const auto &size = options.sizes[static_cast<std::size_t>(
        rng.uniformInt(0,
                       static_cast<std::int64_t>(options.sizes.size()) -
                           1))];
    shape.width = size.first;
    shape.height = size.second;
    shape.complexity =
        rng.uniform(options.minComplexity, options.maxComplexity);
    shape.chromaSub = rng.bernoulli(0.6);
    return shape;
}

/** Iterates a bursty image stream: sizes persist within a burst and
 *  complexity drifts, mimicking camera bursts or same-site browsing. */
class ImageStream
{
  public:
    ImageStream(const ImageCorpusOptions &options, util::Rng &rng)
        : options(options), rng(rng)
    {}

    ImageShape
    next()
    {
        if (burst_left <= 0) {
            current = drawImage(options, rng);
            const double p = options.meanBurstLength <= 1.0
                ? 0.0
                : 1.0 - 1.0 / options.meanBurstLength;
            burst_left = rng.burstLength(p, 8);
        } else {
            current.complexity = std::min(
                options.maxComplexity,
                std::max(options.minComplexity,
                         current.complexity + rng.normal(0.0, 0.05)));
        }
        --burst_left;
        return current;
    }

  private:
    const ImageCorpusOptions &options;
    util::Rng &rng;
    ImageShape current;
    std::int64_t burst_left = 0;
};

} // namespace

std::vector<rtl::JobInput>
makeEncodeImages(const rtl::Design &design,
                 const ImageCorpusOptions &options, util::Rng rng)
{
    const accel::CjpegFields f = accel::cjpegFields(design);
    const std::size_t num_fields = design.numFields();

    std::vector<rtl::JobInput> corpus;
    corpus.reserve(static_cast<std::size_t>(options.count));
    ImageStream stream(options, rng);

    for (int i = 0; i < options.count; ++i) {
        const ImageShape shape = stream.next();
        const int mcus =
            ((shape.width + 15) / 16) * ((shape.height + 15) / 16);

        rtl::JobInput job;
        job.items.reserve(static_cast<std::size_t>(mcus),
                          static_cast<std::size_t>(mcus) * num_fields);
        for (int m = 0; m < mcus; ++m) {
            const std::span<std::int64_t> fields =
                job.items.appendItem(num_fields);
            // Non-zero quantised coefficients track local detail;
            // detail clusters within an image.
            fields[f.nonzeroCoeffs] = clampI(
                rng.normal(shape.complexity * 130.0, 34.0), 0, 378);
            fields[f.chromaSub] = shape.chromaSub ? 1 : 0;
        }
        corpus.push_back(std::move(job));
    }
    return corpus;
}

std::vector<rtl::JobInput>
makeDecodeImages(const rtl::Design &design,
                 const ImageCorpusOptions &options, util::Rng rng)
{
    const accel::DjpegFields f = accel::djpegFields(design);
    const std::size_t num_fields = design.numFields();

    std::vector<rtl::JobInput> corpus;
    corpus.reserve(static_cast<std::size_t>(options.count));
    ImageStream stream(options, rng);

    for (int i = 0; i < options.count; ++i) {
        const ImageShape shape = stream.next();
        const int mcus =
            ((shape.width + 15) / 16) * ((shape.height + 15) / 16);

        rtl::JobInput job;
        job.items.reserve(static_cast<std::size_t>(mcus),
                          static_cast<std::size_t>(mcus) * num_fields);
        for (int m = 0; m < mcus; ++m) {
            const std::span<std::int64_t> fields =
                job.items.appendItem(num_fields);
            fields[f.acCoeffs] = clampI(
                rng.normal(shape.complexity * 95.0, 28.0), 0, 378);
            fields[f.runPattern] = rng.uniformInt(0, 255);
            fields[f.chromaSub] = shape.chromaSub ? 1 : 0;
        }
        corpus.push_back(std::move(job));
    }
    return corpus;
}

std::vector<rtl::JobInput>
makeStencilImages(const rtl::Design &design,
                  const ImageCorpusOptions &options, util::Rng rng)
{
    const accel::StencilFields f = accel::stencilFields(design);
    const std::size_t num_fields = design.numFields();

    std::vector<rtl::JobInput> corpus;
    corpus.reserve(static_cast<std::size_t>(options.count));
    ImageStream stream(options, rng);

    for (int i = 0; i < options.count; ++i) {
        const ImageShape shape = stream.next();

        rtl::JobInput job;
        job.items.reserve(static_cast<std::size_t>(shape.height),
                          static_cast<std::size_t>(shape.height) *
                              num_fields);
        for (int row = 0; row < shape.height; ++row) {
            const std::span<std::int64_t> fields =
                job.items.appendItem(num_fields);
            fields[f.width] = shape.width;
            fields[f.boundary] =
                (row == 0 || row == shape.height - 1) ? 1 : 0;
        }
        corpus.push_back(std::move(job));
    }
    return corpus;
}

} // namespace workload
} // namespace predvfs
