/**
 * @file
 * Small numeric and JSON helpers: quantiles, a JSON reader for the
 * server's Stats document, and number/string formatting for the
 * runner's own JSON output.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** A parsed JSON value (enough of JSON for the Stats document). */
struct Json
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    /** Member @p key of an object, or nullptr. */
    const Json *get(const std::string &key) const;

    /** Numeric member @p key, or 0 when absent or not a number. */
    double num(const std::string &key) const;
};

/** Parse @p text; nullopt on malformed input or trailing bytes. */
std::optional<Json> parseJson(const std::string &text);

/** A finite double printed with all its digits; null otherwise. */
std::string jsonNumber(double value);

/** @p text as a quoted JSON string. */
std::string jsonString(const std::string &text);

/** @p values as a JSON array of jsonNumber()s. */
std::string jsonNumbers(const std::vector<double> &values);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
