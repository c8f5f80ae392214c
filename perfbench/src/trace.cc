#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::uint64_t
Tracer::begin(const std::string &name, std::uint64_t parent)
{
    Span span;
    span.id = all.size() + 1;
    span.parent = parent;
    span.name = name;
    span.start = Clock::now();
    all.push_back(std::move(span));
    return all.back().id;
}

void
Tracer::end(std::uint64_t id, std::uint64_t work)
{
    Span &span = all.at(id - 1);
    span.end = Clock::now();
    span.work = work;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : all)
        if (s.name == name)
            total += seconds(s.start, s.end);
    return total;
}

std::uint64_t
Tracer::totalWork(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const Span &s : all)
        if (s.name == name)
            total += s.work;
    return total;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : all)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : all) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the children's intervals, clipped to the parent.
            std::vector<std::pair<Clock::time_point, Clock::time_point>>
                spans;
            for (const Span *c : it->second)
                spans.emplace_back(std::max(c->start, s.start),
                                   std::min(c->end, s.end));
            std::sort(spans.begin(), spans.end());
            Clock::time_point reach = s.start;
            for (const auto &[b, e] : spans) {
                const Clock::time_point from = std::max(b, reach);
                if (e > from) {
                    covered += seconds(from, e);
                    reach = e;
                }
            }
        }
        self[s.name] += seconds(s.start, s.end) - covered;
    }
    return self;
}

bool
Tracer::writeNdjson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    Clock::time_point origin = Clock::time_point::max();
    for (const Span &s : all)
        origin = std::min(origin, s.start);
    for (const RequestSpan &r : requests)
        origin = std::min(origin, r.due);
    const auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                    origin)
            .count();
    };
    for (const Span &s : all)
        out << "{\"kind\":\"span\",\"id\":" << s.id
            << ",\"parent\":" << s.parent
            << ",\"name\":" << jsonString(s.name)
            << ",\"start_ns\":" << ns(s.start)
            << ",\"end_ns\":" << ns(s.end) << ",\"work\":" << s.work
            << "}\n";
    for (const RequestSpan &r : requests)
        out << "{\"kind\":\"request\",\"id\":" << r.request
            << ",\"rung\":" << r.rung << ",\"stream\":" << r.stream
            << ",\"due_ns\":" << ns(r.due) << ",\"sent_ns\":" << ns(r.sent)
            << ",\"done_ns\":" << ns(r.done)
            << ",\"ok\":" << (r.ok ? "true" : "false") << "}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
