#include "workload/trace_io.hh"

#include <span>
#include <sstream>

#include "util/logging.hh"

namespace predvfs {
namespace workload {

using util::fatal;
using util::fatalIf;
using util::panicIf;

void
writeTraceCsv(std::ostream &os, const rtl::Design &design,
              const std::vector<rtl::JobInput> &jobs)
{
    os << "job";
    for (const auto &field : design.fieldNames())
        os << "," << field;
    os << "\n";

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        for (const auto &item : jobs[j].items) {
            panicIf(item.fields.size() != design.numFields(),
                    "writeTraceCsv: item arity mismatch");
            os << j;
            for (auto v : item.fields)
                os << "," << v;
            os << "\n";
        }
    }
}

std::vector<rtl::JobInput>
readTraceCsv(std::istream &is, const rtl::Design &design)
{
    std::string line;
    fatalIf(!std::getline(is, line), "empty trace file");

    // Validate the header against the design's schema.
    {
        std::istringstream header(line);
        std::string column;
        fatalIf(!std::getline(header, column, ',') || column != "job",
                "trace header must start with 'job'");
        for (const auto &field : design.fieldNames()) {
            fatalIf(!std::getline(header, column, ','),
                    "trace header missing field '", field, "'");
            fatalIf(column != field, "trace header column '", column,
                    "' does not match design field '", field, "'");
        }
        fatalIf(static_cast<bool>(std::getline(header, column, ',')),
                "trace header has extra column '", column, "'");
    }

    std::vector<rtl::JobInput> jobs;
    long long expected_job = -1;

    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream row(line);
        std::string cell;

        fatalIf(!std::getline(row, cell, ','),
                "trace line ", line_no, ": missing job id");
        long long job_id = 0;
        try {
            job_id = std::stoll(cell);
        } catch (...) {
            fatal("trace line ", line_no, ": bad job id '", cell, "'");
        }
        fatalIf(job_id < 0, "trace line ", line_no,
                ": negative job id");
        fatalIf(job_id < expected_job, "trace line ", line_no,
                ": job ids must be non-decreasing");
        while (expected_job < job_id) {
            jobs.emplace_back();
            ++expected_job;
        }

        const std::span<std::int64_t> fields =
            jobs.back().items.appendItem(design.numFields());
        for (std::size_t f = 0; f < fields.size(); ++f) {
            fatalIf(!std::getline(row, cell, ','), "trace line ",
                    line_no, ": missing field ",
                    design.fieldNames()[f]);
            try {
                fields[f] = std::stoll(cell);
            } catch (...) {
                fatal("trace line ", line_no, ": bad value '", cell,
                      "'");
            }
        }
        fatalIf(static_cast<bool>(std::getline(row, cell, ',')),
                "trace line ", line_no, ": extra columns");
    }

    // Drop trailing empty jobs (ids may have been sparse at the end).
    while (!jobs.empty() && jobs.back().items.empty())
        jobs.pop_back();
    for (std::size_t j = 0; j < jobs.size(); ++j)
        fatalIf(jobs[j].items.empty(), "trace job ", j,
                " has no items (job ids must be dense)");
    return jobs;
}

} // namespace workload
} // namespace predvfs
