#include "workload/buffers.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "accel/aes.hh"
#include "accel/sha.hh"
#include "util/logging.hh"

namespace predvfs {
namespace workload {

namespace {

/** Iterates a sessionised buffer-size stream: sizes are log-uniform
 *  across sessions and jitter mildly within one. */
class SizeStream
{
  public:
    SizeStream(const BufferCorpusOptions &options, util::Rng &rng)
        : options(options), rng(rng)
    {
        util::panicIf(options.minBytes <= 0 ||
                          options.maxBytes < options.minBytes,
                      "bad buffer size range");
    }

    std::int64_t
    next()
    {
        if (session_left <= 0) {
            const double lo =
                std::log(static_cast<double>(options.minBytes));
            const double hi =
                std::log(static_cast<double>(options.maxBytes));
            session_log_bytes = rng.uniform(lo, hi);
            const double p = options.meanSessionLength <= 1.0
                ? 0.0
                : 1.0 - 1.0 / options.meanSessionLength;
            session_left = rng.burstLength(p, 12);
        }
        --session_left;
        const double jittered =
            session_log_bytes + rng.normal(0.0, 0.08);
        const double bytes = std::exp(std::min(
            std::log(static_cast<double>(options.maxBytes)),
            std::max(std::log(static_cast<double>(options.minBytes)),
                     jittered)));
        return static_cast<std::int64_t>(std::llround(bytes));
    }

  private:
    const BufferCorpusOptions &options;
    util::Rng &rng;
    double session_log_bytes = 0.0;
    std::int64_t session_left = 0;
};

} // namespace

std::vector<rtl::JobInput>
makeAesBuffers(const rtl::Design &design,
               const BufferCorpusOptions &options, util::Rng rng)
{
    const accel::AesFields f = accel::aesFields(design);
    const std::size_t num_fields = design.numFields();
    constexpr std::int64_t seg_blocks = 256;  // 4 KiB / 16 B.

    std::vector<rtl::JobInput> corpus;
    corpus.reserve(static_cast<std::size_t>(options.count));
    SizeStream sizes(options, rng);

    for (int i = 0; i < options.count; ++i) {
        const std::int64_t bytes = sizes.next();
        std::int64_t blocks = std::max<std::int64_t>(1, bytes / 16);
        const bool cbc = rng.bernoulli(0.5);
        // Key size distribution: mostly AES-128.
        const std::size_t key_pick =
            rng.categorical({0.7, 0.15, 0.15});
        const std::int64_t key_rounds =
            key_pick == 0 ? 10 : key_pick == 1 ? 12 : 14;

        const auto segs =
            static_cast<std::size_t>((blocks + seg_blocks - 1) / seg_blocks);
        rtl::JobInput job;
        job.items.reserve(segs, segs * num_fields);
        bool first = true;
        while (blocks > 0) {
            const std::span<std::int64_t> fields =
                job.items.appendItem(num_fields);
            fields[f.blocks] = std::min(blocks, seg_blocks);
            fields[f.cbcMode] = cbc ? 1 : 0;
            fields[f.keyRounds] = key_rounds;
            fields[f.firstSeg] = first ? 1 : 0;
            blocks -= seg_blocks;
            first = false;
        }
        corpus.push_back(std::move(job));
    }
    return corpus;
}

std::vector<rtl::JobInput>
makeShaBuffers(const rtl::Design &design,
               const BufferCorpusOptions &options, util::Rng rng)
{
    const accel::ShaFields f = accel::shaFields(design);
    const std::size_t num_fields = design.numFields();
    constexpr std::int64_t seg_chunks = 64;  // 4 KiB / 64 B.

    std::vector<rtl::JobInput> corpus;
    corpus.reserve(static_cast<std::size_t>(options.count));
    SizeStream sizes(options, rng);

    for (int i = 0; i < options.count; ++i) {
        const std::int64_t bytes = sizes.next();
        std::int64_t chunks = std::max<std::int64_t>(1, bytes / 64);

        const auto segs =
            static_cast<std::size_t>((chunks + seg_chunks - 1) / seg_chunks);
        rtl::JobInput job;
        job.items.reserve(segs, segs * num_fields);
        while (chunks > 0) {
            const std::span<std::int64_t> fields =
                job.items.appendItem(num_fields);
            fields[f.chunks] = std::min(chunks, seg_chunks);
            chunks -= seg_chunks;
            fields[f.lastSeg] = chunks <= 0 ? 1 : 0;
        }
        corpus.push_back(std::move(job));
    }
    return corpus;
}

} // namespace workload
} // namespace predvfs
