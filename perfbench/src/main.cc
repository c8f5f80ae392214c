/**
 * @file
 * The benchmark runner. perfbench/run.py builds it and runs
 *
 *   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
 *                    --server PATH --out DIR
 *
 * which prints a human-readable summary and, as its last line, one JSON
 * object with every metric, the checks' verdict and the machine
 * descriptor. --list-metrics prints the metric names and workload
 * parameters instead.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>


#include "runner.hh"

extern char **environ;

using namespace perfbench;

namespace {

/** Unset every PREDVFS_* knob before the library can read one. */
std::vector<std::string>
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "PREDVFS_", 8) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e)
                                      : std::strlen(*e));
        }
    for (const std::string &name : names)
        ::unsetenv(name.c_str());
    return names;
}

std::string
namesJson(const auto &names)
{
    std::string out = "[";
    for (std::size_t i = 0; i < names.size(); ++i)
        out += (i ? ", " : "") + jsonString(std::string(names[i]));
    return out + "]";
}

std::string
metricsJson(const std::map<std::string, double> &metrics)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        out += (first ? "" : ", ") + jsonString(name) + ": " +
            jsonNumber(value);
        first = false;
    }
    return out + "}";
}

int
listMetrics()
{
    std::cout << "{\"end_to_end\": " << namesJson(kEndToEndMetrics)
              << ", \"per_layer\": " << namesJson(kPerLayerMetrics)
              << ", \"workloads\": {";
    std::cout << jsonString(std::string(kServeUnique.name))
              << ": {\"latency_limit_ms\": "
              << jsonNumber(kServeUnique.latencyLimitMs)
              << ", \"server_args\": "
              << jsonString(std::string(kServeUnique.serverArgs)) << "}, ";
    std::cout << "\"sweep\": {}}}\n";
    return 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload serve_unique|sweep "
                 "--seed N --seconds S --trace 0|1 --server PATH --out DIR\n"
                 "       %s --list-metrics\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    options.started = Clock::now();
    const std::vector<std::string> scrubbed = scrubEnvironment();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics")
            return listMetrics();
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                options.workload = value;
            else if (arg == "--seed")
                options.seed = std::stoull(value);
            else if (arg == "--seconds")
                options.seconds = std::stod(value);
            else if (arg == "--trace")
                options.trace = value == "1";
            else if (arg == "--server")
                options.serverBinary = value;
            else if (arg == "--out")
                options.outDir = value;
            else
                return usage(argv[0]);
        } catch (const std::exception &) {
            return usage(argv[0]);
        }
    }
    if (options.outDir.empty() || options.seconds <= 0)
        return usage(argv[0]);

    Report report;
    if (options.workload == kServeUnique.name)
        report = runServe(kServeUnique, options);
    else if (options.workload == "sweep")
        report = runSweep(options);
    else
        return usage(argv[0]);

    for (const std::string &line : report.lines)
        std::cout << line << "\n";
    for (const std::string &problem : report.problems)
        std::cout << "CHECK FAILED: " << problem << "\n";

    std::ostringstream detail;
    detail << "{";
    for (std::size_t i = 0; i < report.detail.size(); ++i)
        detail << (i ? ", " : "") << report.detail[i];
    detail << "}";
    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed
              << ", \"end_to_end\": " << metricsJson(report.endToEnd)
              << ", \"per_layer\": " << metricsJson(report.perLayer)
              << ", \"problems\": " << namesJson(report.problems)
              << ", \"detail\": " << detail.str()
              << ", \"scrubbed_env\": " << namesJson(scrubbed)
              << ", \"machine\": " << machineJson() << "}" << std::endl;
    return 0;
}
