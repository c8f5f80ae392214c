/**
 * @file
 * rtl::JobItems, the flat per-job item store: ragged and empty items,
 * in-place writes, value semantics, and the byte layouts built from it
 * — JobCache keys, hashes and snapshot files, and the Predict wire
 * format — pinned to constants so a storage change cannot move them.
 * Hostile Predict frames must fail with a typed error.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "sim/job_cache.hh"

using namespace predvfs;
using rtl::JobInput;
using rtl::WorkItem;

namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kStreamKey = 0x1234abcd5678ef01ull;

std::vector<std::int64_t>
fieldsOf(std::span<const std::int64_t> fields)
{
    return {fields.begin(), fields.end()};
}

/** Ragged items with an empty one among them. */
JobInput
raggedJob()
{
    JobInput job;
    job.items.push_back({{1, -2, 3000000000LL}});
    job.items.push_back({});
    job.items.push_back({{7}});
    job.items.push_back({{kMin, kMax}});
    return job;
}

/** The fixed job set the layout constants were computed over. */
std::vector<JobInput>
fixedJobs()
{
    std::vector<JobInput> jobs(3);
    jobs[0] = raggedJob();
    // jobs[1] has no items at all.
    for (std::int64_t i = 0; i < 3; ++i) {
        WorkItem item;
        for (std::int64_t f = 0; f < 4; ++f)
            item.fields.push_back(i * 1000 + f);
        jobs[2].items.push_back(item);
    }
    return jobs;
}

std::vector<std::uint8_t>
le(std::uint64_t v, int bytes)
{
    std::vector<std::uint8_t> out;
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    return out;
}

/** A Predict payload header announcing @p items items. */
std::vector<std::uint8_t>
predictHeader(std::uint32_t items)
{
    std::vector<std::uint8_t> payload = le(1, 4);  // Stream id.
    for (const std::uint64_t v : {std::uint64_t{7}, std::uint64_t{0}}) {
        const auto b = le(v, 8);  // Request id, deadline.
        payload.insert(payload.end(), b.begin(), b.end());
    }
    const auto n = le(items, 4);
    payload.insert(payload.end(), n.begin(), n.end());
    return payload;
}

} // namespace

TEST(JobItems, RaggedAndEmptyItems)
{
    const JobInput job = raggedJob();
    ASSERT_EQ(job.items.size(), 4u);
    EXPECT_FALSE(job.items.empty());
    EXPECT_EQ(fieldsOf(job.items[0].fields),
              (std::vector<std::int64_t>{1, -2, 3000000000LL}));
    EXPECT_TRUE(job.items[1].fields.empty());
    EXPECT_EQ(fieldsOf(job.items[2].fields),
              (std::vector<std::int64_t>{7}));
    EXPECT_EQ(fieldsOf(job.items[3].fields),
              (std::vector<std::int64_t>{kMin, kMax}));

    // The flat layout: every item's values back to back.
    EXPECT_EQ(fieldsOf(job.items.fieldValues()),
              (std::vector<std::int64_t>{1, -2, 3000000000LL, 7, kMin,
                                         kMax}));

    // Range-for visits the same items as indexing, in order.
    std::size_t i = 0;
    for (const auto &item : job.items) {
        EXPECT_EQ(fieldsOf(item.fields), fieldsOf(job.items[i].fields));
        ++i;
    }
    EXPECT_EQ(i, job.items.size());

    const JobInput none;
    EXPECT_EQ(none.items.size(), 0u);
    EXPECT_TRUE(none.items.empty());
    EXPECT_EQ(none.items.begin(), none.items.end());
    EXPECT_TRUE(none.items.fieldValues().empty());
}

TEST(JobItems, AppendItemIsZeroedAndWritableInPlace)
{
    JobInput job;
    const std::span<std::int64_t> fresh = job.items.appendItem(3);
    EXPECT_EQ(fieldsOf(job.items[0].fields),
              (std::vector<std::int64_t>{0, 0, 0}));
    fresh[1] = 42;
    job.items.appendItem(0);
    job.items.push_back({{5, 6}});

    job.items[2].fields[0] = -9;
    for (auto item : job.items)
        if (!item.fields.empty())
            item.fields.back() += 100;

    EXPECT_EQ(fieldsOf(job.items[0].fields),
              (std::vector<std::int64_t>{0, 42, 100}));
    EXPECT_TRUE(job.items[1].fields.empty());
    EXPECT_EQ(fieldsOf(job.items[2].fields),
              (std::vector<std::int64_t>{-9, 106}));

    job.items.clear();
    EXPECT_TRUE(job.items.empty());
    EXPECT_TRUE(job.items.fieldValues().empty());
}

TEST(JobItems, CopyAndMoveKeepEquality)
{
    const JobInput original = raggedJob();
    JobInput copy = original;
    EXPECT_TRUE(copy == original);

    // A copy owns its storage.
    copy.items[0].fields[0] = 99;
    EXPECT_FALSE(copy == original);
    EXPECT_EQ(original.items[0].fields[0], 1);

    JobInput source = raggedJob();
    const JobInput moved = std::move(source);
    EXPECT_TRUE(moved == original);
    JobInput assigned;
    assigned = moved;
    EXPECT_TRUE(assigned == original);

    // Equality is per item: the same values split differently differ.
    JobInput split;
    split.items.push_back({{1, -2}});
    split.items.push_back({{3000000000LL}});
    JobInput whole;
    whole.items.push_back({{1, -2, 3000000000LL}});
    EXPECT_FALSE(split == whole);
    EXPECT_TRUE(JobInput{} == JobInput{});
}

TEST(JobItems, CacheKeysHashesAndSnapshotMatchPinnedLayout)
{
    // Constants computed with per-item field vectors: the flat store
    // must reproduce every key word, hash and snapshot byte.
    const std::vector<JobInput> jobs = fixedJobs();
    const std::vector<std::vector<std::int64_t>> keys = {
        {1311862289879068417, 4, 3, 1, -2, 3000000000, 0, 1, 7, 2, kMin,
         kMax},
        {1311862289879068417, 0},
        {1311862289879068417, 3, 4, 0, 1, 2, 3, 4, 1000, 1001, 1002, 1003,
         4, 2000, 2001, 2002, 2003},
    };
    const std::vector<std::uint64_t> hashes = {
        0xf3289c51a1c5ff70ull, 0x2cc2f90ba27c0e15ull, 0xd31d26cb3917568full};

    sim::JobCache cache;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto key = sim::JobCache::canonicalKey(kStreamKey, jobs[j]);
        EXPECT_EQ(key, keys[j]) << "job " << j;
        EXPECT_EQ(sim::JobCache::hashJob(kStreamKey, jobs[j]), hashes[j]);
        EXPECT_EQ(sim::JobCache::hashBytes(
                      key.data(), key.size() * sizeof(std::int64_t)),
                  hashes[j]);
        EXPECT_TRUE(sim::JobCache::keyMatchesJob(key, kStreamKey, jobs[j]));
        const double d = static_cast<double>(j);
        sim::CachedJob value;
        value.cycles = 100 + j;
        value.energyUnits = 1.5 * d;
        value.sliceCycles = 10 + j;
        value.sliceEnergyUnits = 0.25 * d;
        value.predictedCycles = 99.5 + d;
        cache.insert(kStreamKey, jobs[j], value);
    }

    const std::string path = testing::TempDir() + "job_input_snapshot.txt";
    ASSERT_TRUE(cache.saveSnapshotFile(path));
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_EQ(bytes.size(), 511u);
    EXPECT_EQ(sim::JobCache::hashBytes(bytes.data(), bytes.size()),
              0xa0fb816234494d7dull);
}

TEST(JobItems, PredictRoundTripKeepsRaggedJobs)
{
    serve::PredictMsg msg;
    msg.streamId = 3;
    msg.requestId = 9;
    msg.deadlineMicros = 16667;
    msg.job = raggedJob();
    const std::vector<std::uint8_t> payload = serve::encodePredict(msg);
    EXPECT_EQ(payload.size(), 88u);
    EXPECT_EQ(sim::JobCache::hashBytes(payload.data(), payload.size()),
              0x2a6e2fedf3419e11ull);

    for (const JobInput &job : fixedJobs()) {
        msg.job = job;
        serve::PredictMsg back;
        back.job = raggedJob();  // Decoding replaces, never appends.
        ASSERT_TRUE(serve::decodePredict(serve::encodePredict(msg), back));
        EXPECT_TRUE(back.job == job);
        EXPECT_EQ(back.requestId, 9u);
    }
}

TEST(JobItems, HostilePredictCountsFailTyped)
{
    // Item and field counts near 2^32 in a payload of a few bytes.
    std::vector<std::vector<std::uint8_t>> hostile;
    hostile.push_back(predictHeader(0xffffffffu));
    auto huge_fields = predictHeader(1);
    const auto count = le(0xffffffffu, 4);
    huge_fields.insert(huge_fields.end(), count.begin(), count.end());
    hostile.push_back(huge_fields);
    // One honest item, then a forged field count.
    auto late = predictHeader(2);
    const auto one = le(1, 4);
    const auto value = le(5, 8);
    late.insert(late.end(), one.begin(), one.end());
    late.insert(late.end(), value.begin(), value.end());
    late.insert(late.end(), count.begin(), count.end());
    hostile.push_back(late);

    for (const auto &payload : hostile) {
        serve::PredictMsg out;
        EXPECT_FALSE(serve::decodePredict(payload, out));
    }

    // A live server answers each with a BadFrame error, then closes.
    serve::PredictionServer server;
    for (const auto &payload : hostile) {
        const std::unique_ptr<serve::Connection> conn =
            server.connectLoopback();
        const auto frame =
            serve::encodeFrame(serve::MsgType::Predict, payload);
        conn->writeAll(frame.data(), frame.size());

        serve::FrameDecoder decoder;
        std::vector<serve::Frame> frames;
        std::uint8_t buffer[256];
        std::size_t n = 0;
        while ((n = conn->read(buffer, sizeof(buffer))) > 0) {
            decoder.feed(buffer, n);
            serve::Frame f;
            while (decoder.next(f) == serve::FrameDecoder::Status::Ready)
                frames.push_back(f);
        }
        ASSERT_EQ(frames.size(), 1u);
        ASSERT_EQ(static_cast<serve::MsgType>(frames[0].type),
                  serve::MsgType::Error);
        serve::ErrorMsg error;
        ASSERT_TRUE(serve::decodeError(frames[0].payload, error));
        EXPECT_EQ(static_cast<serve::ErrorCode>(error.code),
                  serve::ErrorCode::BadFrame);
    }
}
