/**
 * @file
 * In-memory spans for the traced run. A span wraps one call into a
 * layer of the program (or one served request) from the benchmark's
 * side; spans of one request share its id. Everything stays in memory
 * until writeNdjson() at the end of the run, so recording costs two
 * clock reads and a vector append.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench {

/** One timed interval. parent == 0 marks a root span. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    Clock::time_point start{};
    Clock::time_point end{};
    std::uint64_t work = 0;  //!< Items, jobs or calls done inside.
};

/** Client-side life of one served request. */
struct RequestSpan
{
    std::uint64_t request = 0;   //!< The client's requestId.
    std::uint32_t rung = 0;
    std::uint32_t stream = 0;
    Clock::time_point due{};
    Clock::time_point sent{};
    Clock::time_point done{};
    bool ok = false;
};

class Tracer
{
  public:
    /** Open a span; close it with end(). */
    std::uint64_t begin(const std::string &name, std::uint64_t parent = 0);
    void end(std::uint64_t id, std::uint64_t work = 0);

    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name,
              std::uint64_t parent = 0)
            : t(tracer), spanId(tracer.begin(name, parent))
        {}
        ~Scope() { t.end(spanId, work); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return spanId; }
        std::uint64_t work = 0;

      private:
        Tracer &t;
        std::uint64_t spanId;
    };

    void addRequest(const RequestSpan &request)
    {
        requests.push_back(request);
    }

    /** Total duration (seconds) and work of every span named @p name. */
    double totalSeconds(const std::string &name) const;
    std::uint64_t totalWork(const std::string &name) const;

    /** Per span name: total duration minus the time its child spans
     *  cover (the layer's self time), in seconds. */
    std::map<std::string, double> selfSeconds() const;

    /** One JSON object per line: spans, then request spans. Times are
     *  nanoseconds since the first span opened. */
    bool writeNdjson(const std::string &path) const;

  private:
    std::vector<Span> all;
    std::vector<RequestSpan> requests;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
