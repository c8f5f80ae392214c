/**
 * @file
 * Allocation counts of job construction, measured with a counting
 * replacement of the global operator new (this binary only). A job's
 * items live in one flat buffer, so generating a workload or decoding
 * a Predict frame allocates per job, never per work item, and a forged
 * count in a frame cannot size an allocation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "accel/registry.hh"
#include "serve/protocol.hh"
#include "workload/suite.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};
std::atomic<std::size_t> allocatedBytes{0};

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
        allocatedBytes.fetch_add(n, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

/** Allocations and bytes requested while @p fn runs. */
template <typename Fn>
std::pair<std::size_t, std::size_t>
countAllocations(Fn &&fn)
{
    allocations = 0;
    allocatedBytes = 0;
    counting = true;
    fn();
    counting = false;
    return {allocations.load(), allocatedBytes.load()};
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace predvfs;

TEST(JobAllocations, WorkloadGenerationIsPerJobNotPerItem)
{
    const auto acc = accel::makeAccelerator("h264");
    workload::BenchmarkWorkload work;
    const auto [allocs, bytes] =
        countAllocations([&] { work = workload::makeWorkload(*acc); });

    std::size_t jobs = 0;
    std::size_t items = 0;
    for (const auto *stream : {&work.train, &work.test}) {
        jobs += stream->size();
        for (const rtl::JobInput &job : *stream)
            items += job.items.size();
    }
    ASSERT_GT(jobs, 0u);
    ASSERT_GT(items, 100 * jobs);  // 396 macroblocks per frame.
    // Two buffers per job, plus the stream vectors and set-up.
    EXPECT_LE(allocs, 2 * jobs + 64)
        << jobs << " jobs, " << items << " items, " << bytes << " bytes";
}

TEST(JobAllocations, PredictDecodeIsPerJobNotPerItem)
{
    const auto acc = accel::makeAccelerator("h264");
    const workload::BenchmarkWorkload work = workload::makeWorkload(*acc);
    serve::PredictMsg msg;
    msg.job = work.test.front();
    const std::vector<std::uint8_t> payload = serve::encodePredict(msg);

    serve::PredictMsg back;
    const auto [allocs, bytes] = countAllocations(
        [&] { ASSERT_TRUE(serve::decodePredict(payload, back)); });
    EXPECT_TRUE(back.job == msg.job);
    EXPECT_LE(allocs, 2u);
    EXPECT_LE(bytes, 2 * payload.size());
}

TEST(JobAllocations, ForgedCountsCannotSizeAllocations)
{
    // Header (stream, request, deadline), then one item whose field
    // count claims 2^32 - 1 values, followed by only 16 bytes.
    std::vector<std::uint8_t> payload(20, 0);
    for (const std::uint8_t b : {1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
        payload.push_back(b);
    payload.resize(payload.size() + 16, 0);
    for (const std::uint32_t items : {1u, 0xffffffffu}) {
        for (int i = 0; i < 4; ++i)
            payload[20 + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(items >> (8 * i));
        serve::PredictMsg out;
        const auto [allocs, bytes] = countAllocations(
            [&] { EXPECT_FALSE(serve::decodePredict(payload, out)); });
        EXPECT_LE(bytes, 2 * payload.size()) << items << " items";
        EXPECT_LE(allocs, 2u);
    }
}
