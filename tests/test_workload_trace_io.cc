/**
 * @file
 * CSV trace I/O: round trips for generated workloads, schema
 * validation, and malformed-input rejection.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/registry.hh"
#include "rtl/interpreter.hh"
#include "workload/suite.hh"
#include "workload/trace_io.hh"

using namespace predvfs;

TEST(TraceIo, RoundTripsGeneratedWorkload)
{
    const auto acc = accel::makeAccelerator("aes");
    const auto work = workload::makeWorkload(*acc);

    std::stringstream buffer;
    workload::writeTraceCsv(buffer, acc->design(), work.test);
    const auto reloaded =
        workload::readTraceCsv(buffer, acc->design());

    ASSERT_EQ(reloaded.size(), work.test.size());
    for (std::size_t j = 0; j < reloaded.size(); ++j)
        EXPECT_TRUE(reloaded[j] == work.test[j]) << "job " << j;

    // Behavioural identity: the reloaded trace simulates identically.
    rtl::Interpreter interp(acc->design());
    for (std::size_t j = 0; j < 5; ++j)
        EXPECT_EQ(interp.run(reloaded[j]).cycles,
                  interp.run(work.test[j]).cycles);
}

TEST(TraceIo, HeaderCarriesFieldNames)
{
    const auto acc = accel::makeAccelerator("md");
    std::stringstream buffer;
    workload::writeTraceCsv(buffer, acc->design(), {});
    std::string header;
    std::getline(buffer, header);
    EXPECT_EQ(header, "job,neighbors");
}

TEST(TraceIoDeath, WrongSchemaRejected)
{
    const auto acc = accel::makeAccelerator("md");
    std::stringstream buffer;
    buffer << "job,wrong_field\n0,5\n";
    EXPECT_DEATH(workload::readTraceCsv(buffer, acc->design()),
                 "does not match");
}

TEST(TraceIoDeath, ExtraColumnRejected)
{
    const auto acc = accel::makeAccelerator("md");
    std::stringstream buffer;
    buffer << "job,neighbors\n0,5,7\n";
    EXPECT_DEATH(workload::readTraceCsv(buffer, acc->design()),
                 "extra columns");
}

TEST(TraceIoDeath, NonNumericValueRejected)
{
    const auto acc = accel::makeAccelerator("md");
    std::stringstream buffer;
    buffer << "job,neighbors\n0,banana\n";
    EXPECT_DEATH(workload::readTraceCsv(buffer, acc->design()),
                 "bad value");
}

TEST(TraceIoDeath, DecreasingJobIdsRejected)
{
    const auto acc = accel::makeAccelerator("md");
    std::stringstream buffer;
    buffer << "job,neighbors\n1,5\n0,3\n";
    EXPECT_DEATH(workload::readTraceCsv(buffer, acc->design()),
                 "non-decreasing");
}

TEST(TraceIo, HandcraftedTraceDrivesPredictor)
{
    // The intended use: a user brings a real trace and feeds it to
    // the full pipeline.
    const auto acc = accel::makeAccelerator("sha");
    std::stringstream buffer;
    buffer << "job,chunks,last_seg\n"
           << "0,64,0\n0,64,0\n0,10,1\n"
           << "1,64,0\n1,3,1\n";
    const auto jobs = workload::readTraceCsv(buffer, acc->design());
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].items.size(), 3u);
    EXPECT_EQ(jobs[1].items.size(), 2u);

    rtl::Interpreter interp(acc->design());
    EXPECT_GT(interp.run(jobs[0]).cycles, interp.run(jobs[1]).cycles);
}
