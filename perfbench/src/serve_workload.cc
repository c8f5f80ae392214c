/**
 * @file
 * The serve workload: PredictionServer processes driven open-loop
 * over TCP with seeded Poisson arrivals, in rounds that each replay
 * the reference inputs for the latency metrics and run goodput rungs.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runner.hh"
#include "serve/client.hh"
#include "util/thread_pool.hh"

extern char **environ;

namespace perfbench {

using namespace predvfs;

namespace {

/** The serving daemon as a child process with a scrubbed environment. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &binary,
                  const std::vector<std::string> &args,
                  const std::string &log_path)
    {
        int fds[2] = {-1, -1};
        if (::pipe(fds) != 0)
            return;
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY,
                                         0);
        posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
        posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_addclose(&actions, fds[0]);
        posix_spawn_file_actions_addclose(&actions, fds[1]);

        std::vector<std::string> argv_s{binary};
        argv_s.insert(argv_s.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (std::string &a : argv_s)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        // No PREDVFS_* knob reaches the program under test.
        std::vector<char *> envp;
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "PREDVFS_", 8) != 0)
                envp.push_back(*e);
        envp.push_back(nullptr);

        if (posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(),
                        envp.data()) != 0)
            pid = -1;
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[1]);
        outFd = fds[0];
    }

    ~ServerProcess()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
        if (outFd >= 0)
            ::close(outFd);
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** The address from the daemon's "serving ... on ADDR (...)" line,
     *  or "" if it exits or stays silent for @p timeout_s. */
    std::string
    waitListening(double timeout_s)
    {
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(timeout_s));
        for (;;) {
            const std::size_t at = output.find("serving ");
            if (at != std::string::npos) {
                const std::size_t on = output.find(" on ", at);
                const std::size_t paren = output.find(" (", on);
                if (on != std::string::npos && paren != std::string::npos)
                    return output.substr(on + 4, paren - on - 4);
            }
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline - Clock::now());
            if (pid <= 0 || left.count() <= 0 || !readSome(left.count()))
                return "";
        }
    }

    /** SIGTERM (the daemon's graceful drain), then reap it. */
    bool
    stop(double timeout_s)
    {
        if (pid <= 0)
            return false;
        ::kill(pid, SIGTERM);
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(timeout_s));
        while (Clock::now() < deadline && readSome(100)) {
        }
        int exit_status = 0;
        for (;;) {
            const pid_t r = ::waitpid(pid, &exit_status, WNOHANG);
            if (r == pid)
                break;
            if (r < 0 && errno != EINTR)
                return false;
            if (Clock::now() >= deadline) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &exit_status, 0);
                pid = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid = -1;
        return WIFEXITED(exit_status) && WEXITSTATUS(exit_status) == 0;
    }

    /**
     * The running daemon's peak RSS so far, from its own high-water
     * mark; 0 if unreadable. wait4's ru_maxrss would not do: posix_spawn
     * may run the child in the parent's address space until exec, and
     * the kernel carries that peak over.
     */
    double
    peakRssMib() const
    {
        long kb = 0;
        std::ifstream status("/proc/" + std::to_string(pid) + "/status");
        for (std::string line; std::getline(status, line);)
            if (line.rfind("VmHWM:", 0) == 0)
                kb = std::atol(line.c_str() + 6);
        return static_cast<double>(kb) / 1024.0;
    }

  private:
    /** Read what is available within @p timeout_ms; false on EOF. */
    bool
    readSome(long timeout_ms)
    {
        struct pollfd pfd = {outFd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
        if (ready < 0)
            return errno == EINTR;
        if (ready == 0)
            return true;
        char buf[4096];
        const ssize_t n = ::read(outFd, buf, sizeof(buf));
        if (n <= 0)
            return false;
        output.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    pid_t pid = -1;
    int outFd = -1;
    std::string output;
};

/** Sums of the server's per-stream counters from one Stats document. */
struct ServerCounters
{
    double requests = 0, hits = 0, coalesced = 0, simulated = 0, busy = 0,
           expired = 0, batches = 0, batchJobs = 0;
    double peakQueueDepth = 0;
    double p50WeightedUs = 0, p99MaxUs = 0;
    bool parsed = false;

    static ServerCounters
    from(const std::string &stats_json)
    {
        ServerCounters c;
        const auto doc = parseJson(stats_json);
        const Json *server = doc ? doc->get("server_report") : nullptr;
        const Json *streams = server ? server->get("streams") : nullptr;
        if (!streams || streams->type != Json::Type::Array)
            return c;
        c.parsed = true;
        for (const Json &s : streams->array) {
            c.requests += s.num("requests");
            c.hits += s.num("cache_hits");
            c.coalesced += s.num("coalesced");
            c.simulated += s.num("simulated");
            c.busy += s.num("busy");
            c.expired += s.num("expired");
            c.batches += s.num("batches");
            c.batchJobs += s.num("batch_jobs");
            c.p50WeightedUs += s.num("p50_service_us") * s.num("requests");
            c.p99MaxUs = std::max(c.p99MaxUs, s.num("p99_service_us"));
        }
        if (c.requests > 0)
            c.p50WeightedUs /= c.requests;
        if (const Json *srv = server->get("server"))
            c.peakQueueDepth = srv->num("peak_queue_depth");
        return c;
    }
};

struct RungResult
{
    std::string kind;  //!< "reference", "ladder" or "bisect".
    double rate = 0.0;
    double seconds = 0.0;
    std::size_t sent = 0, ok = 0, failed = 0, mismatched = 0;
    double busyReplies = 0.0;
    double p50Ms = 0.0, p99Ms = 0.0;
    /** Per request, in input order, from its due time; a failed
     *  request reads the whole rung. */
    std::vector<double> latencyMs;
    double lateP99Us = 0.0, goodRps = 0.0;
    std::size_t backlogAtEnd = 0;  //!< Unanswered a limit after the end.
    bool backlogGrew = false, generatorLate = false, pass = false;
    bool identityOk = false;
    ServerCounters before, after;
    predvfs::serve::ClientStats clientBefore, clientAfter;
};

/** Everything one serve run holds across rungs. */
struct ServeRun
{
    const ServeParams &params;
    const RunOptions &options;
    std::vector<std::unique_ptr<StreamTwin>> twins;
    std::vector<std::unique_ptr<UniqueJobSource>> unique;
    util::ThreadPool pool{3};
    std::unique_ptr<ServerProcess> server;
    std::unique_ptr<serve::AsyncPredictionClient> client;
    std::unique_ptr<serve::PredictionClient> statsClient;
    std::vector<std::uint32_t> streamIds;
    /** Each round's daemon's peak RSS after the reference replay. */
    std::vector<double> serverRssMib;
    Tracer *tracer = nullptr;

    std::vector<JobInput>
    takeJobs(std::size_t stream, std::size_t n)
    {
        return unique[stream]->take(n, &pool);
    }
};

constexpr auto kSpinLead = std::chrono::microseconds(2000);

/** Disconnect, drain and reap the running daemon. */
void
stopServer(ServeRun &run, Report &report)
{
    run.client.reset();
    run.statsClient.reset();
    if (!run.server)
        return;
    if (!run.server->stop(60.0))
        report.fail("server did not drain and exit cleanly");
    run.server.reset();
}

/** Start the daemon, connect, open both streams and get one reply per
 *  stream. @return seconds from spawn to that point, or -1. */
double
setUp(ServeRun &run, Report &report)
{
    stopServer(run, report);

    std::vector<std::string> args{"--listen", "tcp://127.0.0.1:0", "--bench",
                                  std::string(run.params.benchmarks[0]) +
                                      "," +
                                      std::string(run.params.benchmarks[1]),
                                  "--max-seconds", "900"};
    std::istringstream extra{std::string(run.params.serverArgs)};
    for (std::string a; extra >> a;)
        args.push_back(a);

    std::vector<std::vector<JobInput>> warm(2);
    std::vector<std::vector<core::PreparedJob>> expect(2);
    for (std::size_t s = 0; s < 2; ++s) {
        warm[s] = run.takeJobs(s, 1);
        expect[s] = run.twins[s]->engine->prepare(warm[s],
                                                  run.twins[s]->predictor());
    }

    const Clock::time_point t0 = Clock::now();
    run.server = std::make_unique<ServerProcess>(
        run.options.serverBinary, args,
        run.options.outDir + "/" + run.params.name.data() + "-server.log");
    const std::string address = run.server->waitListening(120.0);
    if (address.empty()) {
        report.fail("server did not start listening");
        return -1.0;
    }
    serve::RetryOptions retry;
    retry.enabled = true;
    retry.jitterSeed = deriveSeed(run.options.seed, 0x6a6974, 0);
    run.client = std::make_unique<serve::AsyncPredictionClient>(
        serve::connectEndpoint(address, 10000), retry);
    run.streamIds.clear();
    for (const std::string_view bench : run.params.benchmarks)
        run.streamIds.push_back(run.client->openStream(std::string(bench)));
    std::atomic<int> matched{0};
    for (std::size_t s = 0; s < 2; ++s)
        run.client->submit(run.streamIds[s], warm[s][0],
                           [&, s](std::uint64_t,
                                  const serve::PredictOutcome &o) {
                               if (o.ok && replyMatches(o.reply, expect[s][0]))
                                   ++matched;
                           });
    run.client->drain();
    const double setup = seconds(t0, Clock::now());

    report.attempted += 2;
    if (matched.load() != 2) {
        report.failed += static_cast<std::uint64_t>(2 - matched.load());
        report.fail("warm-up reply differs from the in-process record");
    }
    for (std::size_t s = 0; s < 2; ++s)
        if (run.client->streamKey(run.streamIds[s]) != run.twins[s]->streamKey)
            report.fail("stream key of " + run.twins[s]->name +
                        " differs between server and in-process twin");
    run.statsClient = std::make_unique<serve::PredictionClient>(
        serve::connectEndpoint(address, 10000));
    return setup;
}

/** A rung's arrivals, jobs and expected replies, made before the clock
 *  runs. */
struct RungInputs
{
    double rate = 0.0;
    double duration = 0.0;
    std::vector<double> due;           //!< Seconds from the rung start.
    std::vector<std::uint32_t> mix;    //!< Stream of each request.
    std::vector<std::size_t> slot;     //!< Index into jobs[stream].
    std::array<std::vector<JobInput>, 2> jobs;
    std::array<std::vector<core::PreparedJob>, 2> expect;
};

/** Inputs of @p duration seconds at @p rate, drawn under the run seed
 *  and @p input_index; every job is new. */
RungInputs
makeInputs(ServeRun &run, double rate, double duration,
           std::uint32_t input_index)
{
    RungInputs in;
    in.rate = rate;
    in.duration = duration;
    const std::uint64_t seed = run.options.seed;
    const std::uint64_t span =
        run.tracer ? run.tracer->begin("bench.inputs") : 0;
    in.due = poissonSchedule(deriveSeed(seed, 0x73636864, input_index), rate,
                             in.duration);
    const std::size_t n = in.due.size();
    in.mix = streamMix(deriveSeed(seed, 0x6d6978, input_index), n,
                       kSecondStreamShare);
    std::array<std::size_t, 2> count{0, 0};
    in.slot.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        in.slot[i] = count[in.mix[i]]++;
    for (std::size_t s = 0; s < 2; ++s) {
        in.jobs[s] = run.takeJobs(s, count[s]);
        in.expect[s] = run.twins[s]->engine->prepare(
            in.jobs[s], run.twins[s]->predictor(), nullptr, &run.pool);
    }
    if (run.tracer)
        run.tracer->end(span, n);
    return in;
}

RungResult
runRung(ServeRun &run, Report &report, const std::string &kind,
        const RungInputs &in, std::uint32_t rung_index)
{
    RungResult r;
    r.kind = kind;
    r.rate = in.rate;
    const double duration = in.duration;
    r.seconds = duration;
    const std::vector<double> &due = in.due;
    const std::vector<std::uint32_t> &mix = in.mix;
    const std::vector<std::size_t> &slot = in.slot;
    const std::size_t n = due.size();

    std::vector<Clock::time_point> sent(n), done(n);
    std::vector<std::uint64_t> request_ids(n);
    std::vector<char> ok(n, 0), match(n, 0);

    r.before = ServerCounters::from(run.statsClient->statsJson());
    r.clientBefore = run.client->stats();

    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(5);
    // Due time of request i; at(n) is the end of the rung.
    const auto at = [&](std::size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i < n ? due[i]
                                                            : duration));
    };
    for (std::size_t i = 0; i < n; ++i) {
        // Sleep to just before the due time, then spin: on small VMs a
        // sleeping thread can wake late, and a pure spin steals a core
        // from the server.
        const Clock::time_point due_at = at(i);
        std::this_thread::sleep_until(due_at - kSpinLead);
        while (Clock::now() < due_at) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        }
        sent[i] = Clock::now();
        const std::size_t s = mix[i];
        const core::PreparedJob *want = &in.expect[s][slot[i]];
        request_ids[i] = run.client->submit(
            run.streamIds[s], in.jobs[s][slot[i]],
            [&, i, want](std::uint64_t, const serve::PredictOutcome &o) {
                done[i] = Clock::now();
                ok[i] = o.ok;
                match[i] = o.ok && replyMatches(o.reply, *want);
            });
    }
    run.client->drain();

    r.after = ServerCounters::from(run.statsClient->statsJson());
    r.clientAfter = run.client->stats();

    // Latency from each request's due time; a failed request counts as
    // missing the limit by the whole rung.
    std::vector<double> &lat_ms = r.latencyMs;
    std::vector<double> late_us(n);
    lat_ms.resize(n);
    std::size_t good = 0;
    for (std::size_t i = 0; i < n; ++i) {
        late_us[i] = std::chrono::duration<double, std::micro>(sent[i] -
                                                               at(i))
                         .count();
        if (!ok[i]) {
            ++r.failed;
            lat_ms[i] = duration * 1000.0;
            continue;
        }
        ++r.ok;
        if (!match[i])
            ++r.mismatched;
        lat_ms[i] = std::chrono::duration<double, std::milli>(done[i] -
                                                              at(i))
                        .count();
        if (match[i] && lat_ms[i] <= run.params.latencyLimitMs)
            ++good;
    }
    r.sent = n;
    r.busyReplies = static_cast<double>(r.clientAfter.busyReplies -
                                        r.clientBefore.busyReplies);
    r.failed += r.mismatched + static_cast<std::size_t>(r.busyReplies);
    r.p50Ms = quantile(lat_ms, 0.50);
    r.p99Ms = quantile(lat_ms, 0.99);
    r.lateP99Us = quantile(late_us, 0.99);
    // A growing backlog leaves requests unanswered a whole latency limit
    // after the last one was due; a momentary stall at the end does not
    // leave more than a small share of the rung.
    const Clock::time_point drained_by =
        at(n) + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        run.params.latencyLimitMs));
    for (std::size_t i = 0; i < n; ++i)
        r.backlogAtEnd += !ok[i] || done[i] > drained_by ? 1 : 0;
    r.goodRps = static_cast<double>(good) / duration;
    r.backlogGrew = static_cast<double>(r.backlogAtEnd) >
        std::max(16.0, 0.01 * static_cast<double>(n));
    // Lateness already counts in every latency (timed from the due
    // time); what invalidates a rung is a generator that could not
    // offer the rate: its last send more than 5% of the rung late.
    r.generatorLate =
        n > 0 && perfbench::seconds(at(n - 1), sent[n - 1]) > 0.05 * duration;
    r.pass = r.failed == 0 && r.p99Ms <= run.params.latencyLimitMs &&
        !r.backlogGrew && !r.generatorLate && n > 0;

    // Telemetry identity over the rung, and the server saw exactly the
    // Predict frames the client wrote.
    const ServerCounters &a = r.after;
    const ServerCounters &b = r.before;
    const double requests = a.requests - b.requests;
    const double answered = (a.hits - b.hits) + (a.coalesced - b.coalesced) +
        (a.simulated - b.simulated) + (a.busy - b.busy) +
        (a.expired - b.expired);
    const double wrote = static_cast<double>(r.clientAfter.requestsSent -
                                             r.clientBefore.requestsSent);
    r.identityOk = a.parsed && b.parsed && requests == answered &&
        requests == wrote;
    if (!r.identityOk)
        report.fail("telemetry identity does not balance on " + kind +
                    " rung at " + jsonNumber(in.rate) + " req/s");
    if (r.mismatched > 0)
        report.fail(std::to_string(r.mismatched) +
                    " served replies differ from the in-process records");

    if (run.tracer) {
        for (std::size_t i = 0; i < n; ++i) {
            RequestSpan span;
            span.request = request_ids[i];
            span.rung = rung_index;
            span.stream = mix[i];
            span.due = at(i);
            span.sent = sent[i];
            span.done = done[i];
            span.ok = ok[i] && match[i];
            run.tracer->addRequest(span);
        }
    }
    return r;
}

std::string
rungJson(const RungResult &r)
{
    std::ostringstream os;
    os << "{\"kind\": " << jsonString(r.kind)
       << ", \"rate_rps\": " << jsonNumber(r.rate)
       << ", \"seconds\": " << jsonNumber(r.seconds)
       << ", \"attempted\": " << r.sent << ", \"ok\": " << r.ok
       << ", \"failed\": " << r.failed
       << ", \"mismatched\": " << r.mismatched
       << ", \"busy_replies\": " << jsonNumber(r.busyReplies)
       << ", \"p50_ms\": " << jsonNumber(r.p50Ms)
       << ", \"p99_ms\": " << jsonNumber(r.p99Ms)
       << ", \"in_limit_rps\": " << jsonNumber(r.goodRps)
       << ", \"late_p99_us\": " << jsonNumber(r.lateP99Us)
       << ", \"backlog_at_end\": " << r.backlogAtEnd
       << ", \"backlog_grew\": " << (r.backlogGrew ? "true" : "false")
       << ", \"generator_late\": " << (r.generatorLate ? "true" : "false")
       << ", \"identity_ok\": " << (r.identityOk ? "true" : "false")
       << ", \"pass\": " << (r.pass ? "true" : "false") << "}";
    return os.str();
}

} // namespace

Report
runServe(const ServeParams &params, const RunOptions &options)
{
    Report report;
    Tracer tracer;
    ServeRun run{params, options, {}, {}};
    if (options.trace)
        run.tracer = &tracer;

    // In-process twins of both streams (untimed): the oracle for every
    // reply and the subject of the traced layer timings.
    for (std::size_t s = 0; s < 2; ++s) {
        run.twins.push_back(buildStreamTwin(std::string(params.benchmarks[s])));
        const std::uint64_t seed = deriveSeed(options.seed, 0x736f7572, s);
        run.unique.push_back(
            std::make_unique<UniqueJobSource>(run.twins[s]->accel, seed));
    }

    // The figure metrics of the served designs on the fixed evaluation
    // stream (the paper's default seed), timed as figure cells.
    std::vector<SweepCell> cells;
    for (const SweepCell &c : sweepCells(options.seed))
        if (c.gridSeed == gridSeeds().front() &&
            (c.benchmark == params.benchmarks[0] ||
             c.benchmark == params.benchmarks[1]))
            cells.push_back(c);
    FigureGrid figures(std::move(cells), run.tracer);

    // The run is kRounds rounds. Each starts a fresh server (a setup_s
    // sample; no job of an earlier round is in its JobCache), replays
    // the same reference inputs, runs the goodput rungs and times
    // kFigurePassesPerRound passes over the figure cells. The first
    // round's goodput rungs are a ladder that finds the knee; every
    // later round replays the same inputs at kGoodputRates fixed rates
    // around it.
    const double limit_ms = params.latencyLimitMs;
    const double rung_seconds = options.seconds * (1.0 - kReferenceShare) /
        (kRounds * kGoodputRates);
    std::uint32_t index = 0;
    std::vector<RungResult> rungs;
    std::vector<double> setups;
    // Inputs replayed every round from the second on ([0], the
    // reference, from the first), and the rungs that replayed each.
    std::vector<RungInputs> replayed;
    std::vector<std::vector<RungResult>> replays;
    replayed.push_back(makeInputs(
        run, params.referenceRps,
        options.seconds * kReferenceShare / kRounds, index++));
    double lo = params.referenceRps, hi = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        if (round == 1) {
            // kGoodputStep apart, centred on the first round's bracket.
            const double centre = hi > 0.0 ? std::sqrt(lo * hi) : lo;
            for (int k = 0; k < kGoodputRates; ++k) {
                const double rate = centre *
                    std::pow(kGoodputStep, k - 0.5 * (kGoodputRates - 1));
                replayed.push_back(
                    makeInputs(run, rate, rung_seconds, index++));
            }
        }
        const double setup = setUp(run, report);
        if (setup < 0)
            return report;
        setups.push_back(setup);
        replays.resize(replayed.size());
        for (std::size_t k = 0; k < replayed.size(); ++k) {
            replays[k].push_back(runRung(run, report,
                                         k == 0 ? "reference" : "goodput",
                                         replayed[k], index++));
            rungs.push_back(replays[k].back());
            // Peak memory serving the reference load; the overload the
            // goodput rungs offer later grows queues by design.
            if (k == 0)
                run.serverRssMib.push_back(run.server->peakRssMib());
        }
        if (round == 0) {
            // The ladder walks up from kLadderStart times the reference
            // rate by kLadderStep until a rung fails, then bisects
            // geometrically between the last passing and that rung.
            const auto run_rung = [&](const char *kind, double rate) {
                const RungInputs in =
                    makeInputs(run, rate, rung_seconds, index);
                rungs.push_back(runRung(run, report, kind, in, index++));
                return rungs.back().pass;
            };
            double rate = lo * kLadderStart;
            for (int k = 0; k < kMaxLadderRungs && hi == 0.0;
                 ++k, rate *= kLadderStep)
                (run_rung("ladder", rate) ? lo : hi) = rate;
            for (int b = 0; b < kBisectRungs && hi > 0.0; ++b) {
                const double mid = std::sqrt(lo * hi);
                (run_rung("bisect", mid) ? lo : hi) = mid;
            }
        }
        for (int p = 0; p < kFigurePassesPerRound; ++p)
            figures.pass(report);
    }

    // Host interference only ever adds latency, and at the reference
    // rate a request seldom queues, so a reference request's latency is
    // its fastest over the replays, as a cell's time is its fastest
    // pass.
    std::vector<double> fastest = replays[0].front().latencyMs;
    for (const RungResult &r : replays[0])
        for (std::size_t i = 0; i < fastest.size(); ++i)
            fastest[i] = std::min(fastest[i], r.latencyMs[i]);
    const double reference_p50 = quantile(fastest, 0.50);
    const double reference_p99 = quantile(fastest, 0.99);
    const RungResult &reference = replays[0].back();

    // Goodput. Near the knee a request's latency is mostly queueing,
    // which a fastest-of-replays would hide, so a replayed rate's p99
    // is the median over the rounds of its rungs' p99, and it meets the
    // limit when that median does and at least half its rungs passed
    // (no errors, no growing backlog). Goodput is the rate where p99
    // meets the limit, interpolated in log rate and log p99 between the
    // last rate that meets it and the first that does not.
    std::vector<std::tuple<double, double, bool>> at_rate;
    for (const std::vector<RungResult> &rs : replays) {
        std::vector<double> p99s;
        std::size_t passes = 0;
        for (const RungResult &r : rs) {
            p99s.push_back(r.p99Ms);
            passes += r.pass ? 1 : 0;
        }
        const double p99 = median(p99s);
        at_rate.emplace_back(rs.front().rate, p99,
                             p99 <= limit_ms && 2 * passes >= rs.size());
    }
    std::sort(at_rate.begin(), at_rate.end());
    double goodput = 0.0;
    bool above_knee = false;
    for (std::size_t k = 0; k < at_rate.size() && !above_knee; ++k) {
        const auto [rate, p99, meets] = at_rate[k];
        above_knee = !meets;
        if (meets)
            goodput = rate;
        else if (k > 0 && p99 > limit_ms) {
            const auto [rate_lo, p99_lo, meets_lo] = at_rate[k - 1];
            const double t =
                std::log(limit_ms / p99_lo) / std::log(p99 / p99_lo);
            goodput = rate_lo * std::pow(rate / rate_lo, t);
        }
    }
    if (goodput == 0.0)
        report.lines.push_back("the reference rate missed the latency limit");
    if (!above_knee)
        report.lines.push_back(
            "goodput is a lower bound: every replayed rate met the limit");

    // Attempted and failed operations: every request sent; failures are
    // counted on the reference replays and on passing rungs (a failing
    // rung past the knee sheds load by design) plus any mismatch.
    for (const RungResult &r : rungs) {
        report.attempted += r.sent;
        if (r.kind == "reference" || r.pass)
            report.failed += r.failed;
        else
            report.failed += r.mismatched;
    }

    const ServerCounters &rb = reference.before;
    const ServerCounters &ra = reference.after;
    const double occupancy = (ra.batchJobs - rb.batchJobs) /
        std::max(1.0, ra.batches - rb.batches);

    stopServer(run, report);
    const GridResult grid = figures.result(report);

    report.endToEnd["setup_s"] = median(setups);
    report.endToEnd["peak_rss_mib"] = median(run.serverRssMib);
    report.endToEnd["p50_ms"] = reference_p50;
    report.endToEnd["cells_per_s"] = grid.cellsPerSecond;
    report.endToEnd["pred_error_pct"] = grid.predErrorPct;
    report.endToEnd["energy_norm"] = grid.energyNorm;
    report.endToEnd["miss_pct"] = grid.missPct;

    std::ostringstream ls;
    ls << params.name << ": reference rung " << params.referenceRps
       << " req/s, " << fastest.size() << " requests x "
       << kRounds << " replays: p50 " << reference_p50
       << " ms, p99 " << reference_p99 << " ms (limit " << limit_ms
       << " ms); goodput " << goodput << " req/s";
    report.lines.push_back(ls.str());
    for (const RungResult &r : rungs) {
        std::ostringstream os;
        os << "  rung " << r.kind << " " << r.rate << " req/s x " << r.seconds
           << " s: " << r.sent << " sent, p99 " << r.p99Ms << " ms, late p99 "
           << r.lateP99Us << " us, backlog " << r.backlogAtEnd
           << ", failed " << r.failed << (r.pass ? "  PASS" : "  FAIL");
        report.lines.push_back(os.str());
    }

    std::ostringstream rj;
    rj << "[";
    for (std::size_t i = 0; i < rungs.size(); ++i)
        rj << (i ? ", " : "") << rungJson(rungs[i]);
    rj << "]";
    report.detail.push_back("\"rungs\": " + rj.str());
    report.detail.push_back("\"setup_samples_s\": " + jsonNumbers(setups));
    report.detail.push_back("\"server_rss_mib\": " +
                            jsonNumbers(run.serverRssMib));
    report.detail.push_back("\"latency_limit_ms\": " + jsonNumber(limit_ms));
    // Reported, not bounded: on the host this benchmark was tuned on,
    // the knee and the reference p99 moved with the host's speed from
    // one run to the next by more than any bound BENCHMARK.json may set.
    report.detail.push_back("\"goodput_rps\": " + jsonNumber(goodput) +
                            ", \"p99_ms\": " + jsonNumber(reference_p99));
    report.detail.push_back("\"reference_samples\": " +
                            std::to_string(fastest.size()) +
                            ", \"rounds\": " + std::to_string(kRounds));
    report.detail.push_back("\"server_args\": " +
                            jsonString(std::string(params.serverArgs)));
    report.detail.push_back("\"figure_cells\": " +
                            std::to_string(grid.cells) + ", \"figure_reps\": " +
                            std::to_string(grid.reps));
    report.detail.push_back("\"figure_pass_rates\": " +
                            jsonNumbers(grid.passRates));

    if (options.trace) {
        // Server-side view of the reference rung.
        report.perLayer["serve.server_p50_us"] = ra.p50WeightedUs;
        report.perLayer["serve.server_p99_us"] = ra.p99MaxUs;
        report.perLayer["serve.batch_occupancy"] = occupancy;
        report.perLayer["serve.peak_queue_depth"] = ra.peakQueueDepth;
        report.perLayer["serve.hits"] = ra.hits - rb.hits;
        report.perLayer["serve.coalesced"] = ra.coalesced - rb.coalesced;
        report.perLayer["serve.simulated"] = ra.simulated - rb.simulated;
        report.perLayer["serve.busy"] = ra.busy - rb.busy;
        report.perLayer["serve.expired"] = ra.expired - rb.expired;
        report.perLayer["serve.client_retries"] = static_cast<double>(
            reference.clientAfter.retries - reference.clientBefore.retries);
        report.perLayer["serve.reconnects"] =
            static_cast<double>(reference.clientAfter.reconnects -
                                reference.clientBefore.reconnects);
        report.perLayer["gen.late_p99_us"] = reference.lateP99Us;

        std::vector<LayerStream> streams;
        for (std::size_t s = 0; s < 2; ++s)
            streams.push_back({run.twins[s].get(),
                               std::move(replayed[0].jobs[s])});
        LayerContext context;
        context.batchOccupancy = occupancy;
        context.clientP50Us = reference_p50 * 1000.0;
        timeLayers(streams, context, tracer, report);

        std::ostringstream gap;
        // Both sides of the same (last) replay.
        gap << "last replay: client p50 " << reference.p50Ms * 1000.0
            << " us vs server service p50 " << ra.p50WeightedUs
            << " us: transport, decode and client account for "
            << reference.p50Ms * 1000.0 - ra.p50WeightedUs << " us";
        report.lines.push_back(gap.str());
        const std::string path = options.outDir + "/" + params.name.data() +
            "-seed" + std::to_string(options.seed) + ".spans.ndjson";
        if (tracer.writeNdjson(path))
            report.lines.push_back("spans written to " + path);
    }
    return report;
}

} // namespace perfbench
