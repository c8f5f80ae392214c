#include "serve/client.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

#include "util/logging.hh"

namespace predvfs {
namespace serve {

namespace {

/** Consecutive sends of one request that vanish *with no reply at
 *  all* before giving up (fatal). A livelock detector, not a
 *  contention bound: a `Busy` reply is the server answering this very
 *  request (legitimate overload — competing bursts can starve a
 *  request on a small queue for arbitrarily many rounds), so it
 *  resets the count, as does any completion since the slot's last
 *  send. Only connection-loss re-sends accumulate. Callers wanting
 *  bounded waiting under overload use deadlines. */
constexpr unsigned kMaxUnansweredSends = 32;

/** A retry-enabled PredictionClient ships a burst in windows of at
 *  most this many requests instead of the whole backlog at once. Over
 *  a lossy transport an all-or-nothing round is pathological — one
 *  mid-round sever voids every frame written, so the chance of
 *  completing a round shrinks exponentially with burst size.
 *  Windowing banks progress every window, at the cost of lower server
 *  batch occupancy; clients without a retry policy keep whole-burst
 *  pipelining. */
constexpr std::size_t kRetryWindow = 16;

/** First backoff after a Busy (or failed dial); doubles each
 *  consecutive round up to the cap. The server's retry-after hint
 *  raises (never lowers) the wait. */
constexpr std::uint64_t kBaseBackoffMicros = 200;
constexpr std::uint64_t kMaxBackoffMicros = 20000;

/** Dial attempts per (re)connect before giving up (fatal). */
constexpr unsigned kReconnectAttempts = 8;

/** fatal() with the server's message if @p frame is an Error. */
void
raiseServerError(const Frame &frame)
{
    if (static_cast<MsgType>(frame.type) != MsgType::Error)
        return;
    ErrorMsg msg;
    util::fatalIf(!decodeError(frame.payload, msg),
                  "prediction client: server sent an undecodable Error "
                  "frame");
    util::fatal("prediction client: server error ",
                errorCodeName(static_cast<ErrorCode>(msg.code)),
                " (request ", msg.requestId, "): ", msg.message);
}

/** The StreamOpened answer to an OpenStream; configuration errors
 *  (UnknownBenchmark and friends) are fatal whatever the policy. */
StreamOpenedMsg
decodeOpened(const Frame &frame)
{
    raiseServerError(frame);
    StreamOpenedMsg opened;
    util::fatalIf(
        static_cast<MsgType>(frame.type) != MsgType::StreamOpened ||
            !decodeStreamOpened(frame.payload, opened),
        "prediction client: OpenStream got frame type ", frame.type);
    util::fatalIf(opened.streamId == 0,
                  "prediction client: server assigned stream id 0");
    return opened;
}

} // namespace

// ===================================================================
// AsyncPredictionClient
// ===================================================================

AsyncPredictionClient::AsyncPredictionClient(
    std::unique_ptr<Connection> connection, RetryOptions retry_)
    : conn(std::move(connection)), retry(std::move(retry_)),
      jitter(retry.jitterSeed)
{
    util::fatalIf(!conn, "prediction client: null connection");
    util::fatalIf(!handshake(),
                  "prediction client: handshake failed (peer closed or "
                  "sent garbage)");
    sender = std::thread([this] { senderLoop(); });
    receiver = std::thread([this] { receiverLoop(); });
}

AsyncPredictionClient::AsyncPredictionClient(RetryOptions retry_)
    : retry(std::move(retry_)), jitter(retry.jitterSeed)
{
    util::fatalIf(!retry.enabled || !retry.connect,
                  "prediction client: the dialling constructor needs "
                  "RetryOptions with a connect factory");
    dial();
    sender = std::thread([this] { senderLoop(); });
    receiver = std::thread([this] { receiverLoop(); });
}

AsyncPredictionClient::~AsyncPredictionClient()
{
    close();
}

bool
AsyncPredictionClient::sendRaw(MsgType type,
                               const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    std::lock_guard<std::mutex> lock(writeMu);
    return conn->writeAll(frame.data(), frame.size());
}

bool
AsyncPredictionClient::readFrame(Frame &out)
{
    std::string error;
    for (;;) {
        const FrameDecoder::Status status = decoder.next(out, &error);
        if (status == FrameDecoder::Status::Ready)
            return true;
        if (status == FrameDecoder::Status::Error) {
            // Garbage means the byte stream is unusable — the same
            // recovery (drop it, maybe redial) as a hard close.
            util::warn("prediction client: server sent garbage: ",
                       error);
            return false;
        }
        std::uint8_t buffer[4096];
        const std::size_t n = conn->read(buffer, sizeof(buffer));
        if (n == 0)
            return false;
        decoder.feed(buffer, n);
    }
}

bool
AsyncPredictionClient::handshake()
{
    if (!sendRaw(MsgType::Hello, encodeHello(HelloMsg{})))
        return false;
    Frame reply;
    if (!readFrame(reply))
        return false;
    // Typed errors here (BadVersion, BadMagic) are configuration
    // mismatches: no amount of redialling fixes them, so they stay
    // fatal whatever the retry policy.
    raiseServerError(reply);
    util::fatalIf(static_cast<MsgType>(reply.type) != MsgType::HelloOk,
                  "prediction client: handshake got frame type ",
                  reply.type, " instead of HelloOk");
    return true;
}

bool
AsyncPredictionClient::reopenStreams()
{
    std::map<std::uint32_t, StreamHandle> fresh;
    {
        std::lock_guard<std::mutex> lock(mu);
        fresh = streams;
    }
    // The server numbers streams in its own registration order, so
    // ids may differ on the new connection; the remapped serverId
    // translates at send time. The key may not differ: that would be
    // another design or predictor behind the same name.
    for (auto &entry : fresh) {
        StreamHandle &handle = entry.second;
        OpenStreamMsg open;
        open.benchmark = handle.benchmark;
        Frame reply;
        if (!sendRaw(MsgType::OpenStream, encodeOpenStream(open)) ||
            !readFrame(reply))
            return false;
        const StreamOpenedMsg opened = decodeOpened(reply);
        util::fatalIf(opened.streamKey != handle.key,
                      "prediction client: stream '", handle.benchmark,
                      "' came back with a different key after a "
                      "reconnect");
        handle.serverId = opened.streamId;
    }
    std::lock_guard<std::mutex> lock(mu);
    streams = std::move(fresh);
    return true;
}

bool
AsyncPredictionClient::dial()
{
    for (unsigned attempt = 0; attempt < kReconnectAttempts; ++attempt) {
        std::unique_ptr<Connection> fresh = retry.connect();
        if (fresh) {
            {
                // close() takes writeMu after raising `closing`, so
                // a connection installed here is one it will shut.
                std::lock_guard<std::mutex> wl(writeMu);
                std::lock_guard<std::mutex> lock(mu);
                if (closing)
                    return false;
                conn = std::move(fresh);
            }
            decoder = FrameDecoder{};
            if (handshake() && reopenStreams())
                return true;
        }
        std::uint64_t wait = 0;
        {
            std::lock_guard<std::mutex> lock(mu);
            wait = backoff(attempt, 0);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(wait));
    }
    util::fatal("prediction client: could not connect in ",
                kReconnectAttempts, " attempts");
    return false;
}

std::uint64_t
AsyncPredictionClient::backoff(unsigned round, std::uint64_t floor_micros)
{
    std::uint64_t wait = kBaseBackoffMicros << std::min(round, 20u);
    wait = std::min(wait, kMaxBackoffMicros);
    // Jitter desynchronises retrying clients without giving up
    // reproducibility: the schedule is a pure function of jitterSeed.
    wait = static_cast<std::uint64_t>(
        static_cast<double>(wait) * (0.5 + 0.5 * jitter.uniform()));
    wait = std::max(wait, floor_micros);
    ++counters.backoffSleeps;
    return wait;
}

Frame
AsyncPredictionClient::control(MsgType type,
                               const std::vector<std::uint8_t> &payload)
{
    std::unique_lock<std::mutex> lock(mu);
    util::fatalIf(closing, "prediction client: used after close()");
    controlFrame = encodeFrame(type, payload);
    controlSent = false;
    cv.notify_all();
    cv.wait(lock, [this] { return closing || controlFrame.empty(); });
    util::fatalIf(closing,
                  "prediction client: closed while awaiting a reply");
    return std::move(controlReply);
}

std::uint32_t
AsyncPredictionClient::openStream(const std::string &benchmark)
{
    OpenStreamMsg open;
    open.benchmark = benchmark;
    for (;;) {
        const StreamOpenedMsg opened = decodeOpened(
            control(MsgType::OpenStream, encodeOpenStream(open)));
        std::lock_guard<std::mutex> lock(mu);
        // A reconnect that began after this reply re-opens only the
        // streams registered before it: open again on the new one.
        if (reconnecting || generation != controlGen)
            continue;
        // The handle is the server's id unless a reconnect to a
        // server that numbers streams differently already gave that
        // id to another benchmark.
        std::uint32_t id = opened.streamId;
        while (streams.count(id) != 0 &&
               streams[id].benchmark != benchmark)
            ++id;
        streams[id] = StreamHandle{benchmark, opened.streamKey,
                                   opened.streamId};
        return id;
    }
}

std::uint64_t
AsyncPredictionClient::streamKey(std::uint32_t stream_id) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = streams.find(stream_id);
    util::fatalIf(it == streams.end(), "prediction client: stream ",
                  stream_id, " was never opened");
    return it->second.key;
}

std::uint64_t
AsyncPredictionClient::submit(std::uint32_t stream_id,
                              const rtl::JobInput &job, Callback done,
                              std::uint64_t deadline_micros)
{
    std::lock_guard<std::mutex> lock(mu);
    util::fatalIf(closing, "prediction client: submit() after close()");
    util::fatalIf(streams.count(stream_id) == 0,
                  "prediction client: stream ", stream_id,
                  " was never opened");
    const std::uint64_t id = nextRequestId++;
    Slot slot;
    slot.streamId = stream_id;
    slot.job = job;
    slot.deadlineMicros = deadline_micros;
    slot.done = std::move(done);
    inflight.emplace(id, std::move(slot));
    sendQueue.push_back(id);
    cv.notify_all();
    return id;
}

void
AsyncPredictionClient::senderLoop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        cv.wait(lock, [this] {
            return closing ||
                (!reconnecting &&
                 (!sendQueue.empty() ||
                  (!controlFrame.empty() && !controlSent)));
        });
        if (closing)
            return;

        std::vector<std::uint8_t> frame;
        std::uint64_t id = 0;  // 0 = the control request.
        if (!controlFrame.empty() && !controlSent) {
            controlSent = true;
            frame = controlFrame;
        } else {
            // Retired slots can linger in the queue (a duplicate
            // reply completed a Busy-requeued request); skip them.
            // Busy-parked requests carry a not-before time: pick the
            // first sendable one, or sleep until the earliest gate.
            const Clock::time_point now = Clock::now();
            Clock::time_point earliest = Clock::time_point::max();
            std::size_t pick = sendQueue.size();
            for (std::size_t i = 0; i < sendQueue.size(); ++i) {
                const auto it = inflight.find(sendQueue[i]);
                if (it == inflight.end() || it->second.readyAt <= now) {
                    pick = i;
                    break;
                }
                earliest = std::min(earliest, it->second.readyAt);
            }
            if (pick == sendQueue.size()) {
                cv.wait_until(lock, earliest);
                continue;
            }
            id = sendQueue[pick];
            sendQueue.erase(sendQueue.begin() +
                            static_cast<std::ptrdiff_t>(pick));
            const auto it = inflight.find(id);
            if (it == inflight.end())
                continue;
            Slot &slot = it->second;

            // Livelock accounting (see kMaxUnansweredSends): Busy
            // replies and completions reset the count; only sends
            // that vanish without any reply accumulate.
            if (slot.unanswered > 0 &&
                completedCount > slot.completedAtSend)
                slot.unanswered = 0;
            ++slot.unanswered;
            util::fatalIf(slot.unanswered > kMaxUnansweredSends,
                          "prediction client: request ", id,
                          " re-sent ", kMaxUnansweredSends,
                          " times with no reply and no progress");
            if (slot.everSent)
                ++counters.retries;
            slot.everSent = true;
            slot.completedAtSend = completedCount;
            slot.sent = true;

            PredictMsg request;
            request.streamId = streams[slot.streamId].serverId;
            request.requestId = id;
            request.deadlineMicros = slot.deadlineMicros;
            request.job = slot.job;
            ++counters.requestsSent;
            frame = encodeFrame(MsgType::Predict, encodePredict(request));
        }

        Connection *wire = conn.get();
        senderInSend = true;
        lock.unlock();
        bool ok;
        {
            std::lock_guard<std::mutex> wl(writeMu);
            ok = wire->writeAll(frame.data(), frame.size());
        }
        lock.lock();
        senderInSend = false;
        if (!ok) {
            // The frame never made it. Requeue it and park until the
            // receiver notices the dead connection (its read sees
            // EOF) and swaps in a fresh one.
            if (id == 0) {
                controlSent = false;
            } else if (const auto it = inflight.find(id);
                       it != inflight.end() && it->second.sent) {
                it->second.sent = false;
                it->second.readyAt = Clock::time_point{};
                sendQueue.push_front(id);
            }
            const std::uint64_t gen = generation;
            cv.notify_all();
            cv.wait(lock, [this, gen] {
                return closing || generation != gen;
            });
        } else {
            cv.notify_all();
        }
    }
}

void
AsyncPredictionClient::receiverLoop()
{
    for (;;) {
        Frame frame;
        if (readFrame(frame)) {
            if (!handleFrame(frame))
                return;
        } else if (!handleConnectionLost()) {
            return;
        }
    }
}

bool
AsyncPredictionClient::handleFrame(const Frame &frame)
{
    const MsgType type = static_cast<MsgType>(frame.type);
    if (type == MsgType::PredictReply) {
        PredictReplyMsg reply;
        util::fatalIf(!decodePredictReply(frame.payload, reply),
                      "prediction client: undecodable PredictReply");
        PredictOutcome outcome;
        outcome.ok = true;
        outcome.reply = reply;
        complete(reply.requestId, outcome);
        return true;
    }

    if (type == MsgType::StreamOpened || type == MsgType::StatsReply) {
        // The answer to the one pending control request.
        std::lock_guard<std::mutex> lock(mu);
        util::fatalIf(controlFrame.empty(),
                      "prediction client: unsolicited frame type ",
                      frame.type);
        controlReply = frame;
        controlGen = generation;
        controlFrame.clear();
        cv.notify_all();
        return true;
    }

    util::fatalIf(type != MsgType::Error,
                  "prediction client: unexpected frame type ",
                  frame.type);
    ErrorMsg error;
    util::fatalIf(!decodeError(frame.payload, error),
                  "prediction client: undecodable Error frame");
    const ErrorCode code = static_cast<ErrorCode>(error.code);

    if (code == ErrorCode::Busy) {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = inflight.find(error.requestId);
        util::fatalIf(!retry.enabled,
                      "prediction client: server busy and retries are "
                      "disabled (request ", error.requestId, ")");
        if (it == inflight.end()) {
            ++counters.duplicateReplies;
            return true;
        }
        ++counters.busyReplies;
        Slot &slot = it->second;
        slot.sent = false;
        slot.unanswered = 0;  // Answered; the server lives.
        slot.readyAt = Clock::now() +
            std::chrono::microseconds(
                backoff(busyRound++, error.retryAfterMicros));
        sendQueue.push_back(error.requestId);
        cv.notify_all();
        return true;
    }
    if (code == ErrorCode::DeadlineExceeded) {
        // Terminal by design: the deadline was the caller's promise
        // that a late answer is worthless.
        PredictOutcome outcome;
        outcome.ok = false;
        outcome.error = code;
        complete(error.requestId, outcome);
        return true;
    }
    if (code == ErrorCode::ShuttingDown && retry.enabled &&
        retry.connect) {
        // The connection is a dead end; everything unanswered moves
        // to a fresh one.
        {
            std::lock_guard<std::mutex> wl(writeMu);
            conn->close();
        }
        return handleConnectionLost();
    }
    raiseServerError(frame);  // Anything else is fatal.
    return true;
}

void
AsyncPredictionClient::complete(std::uint64_t request_id,
                                const PredictOutcome &outcome)
{
    Callback done;
    {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = inflight.find(request_id);
        if (it == inflight.end()) {
            util::fatalIf(!retry.enabled,
                          "prediction client: duplicate or unknown "
                          "reply for request ", request_id);
            ++counters.duplicateReplies;
            return;
        }
        done = std::move(it->second.done);
        inflight.erase(it);
        ++completedCount;
        busyRound = 0;  // The server is making progress again.
        if (!outcome.ok && outcome.error == ErrorCode::DeadlineExceeded)
            ++counters.deadlineExpired;
        ++dispatching;
    }
    if (done)
        done(request_id, outcome);
    {
        std::lock_guard<std::mutex> lock(mu);
        --dispatching;
    }
    cv.notify_all();
}

bool
AsyncPredictionClient::handleConnectionLost()
{
    {
        std::unique_lock<std::mutex> lock(mu);
        reconnecting = true;
        cv.notify_all();
        // Wait the sender out of its in-progress write (after this
        // the receiver owns the connection), and re-dial only once
        // there is work: like a synchronous caller, an idle client
        // learns of a lost connection on its next call.
        cv.wait(lock, [this] {
            return closing ||
                (!senderInSend &&
                 (!inflight.empty() || !controlFrame.empty()));
        });
        if (closing)
            return false;
        util::fatalIf(!retry.enabled || !retry.connect,
                      "prediction client: connection lost (no "
                      "reconnect factory configured)");
        // Whatever was written to the dead connection is gone (or
        // its reply is); it all goes back on the send queue.
        // Re-execution is safe: replies are byte-deterministic.
        for (auto &entry : inflight) {
            if (entry.second.sent) {
                entry.second.sent = false;
                entry.second.readyAt = Clock::time_point{};
                sendQueue.push_back(entry.first);
            }
        }
        controlSent = false;
    }

    if (!dial())
        return false;
    std::lock_guard<std::mutex> lock(mu);
    ++counters.reconnects;
    reconnecting = false;
    ++generation;
    cv.notify_all();
    return true;
}

void
AsyncPredictionClient::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] {
        return closing || (inflight.empty() && dispatching == 0);
    });
}

void
AsyncPredictionClient::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (closing)
            return;
        closing = true;
        cv.notify_all();
    }
    {
        // Bye is best effort: the server may already be gone. Closing
        // unblocks the receiver's read and fails the sender's write.
        std::lock_guard<std::mutex> wl(writeMu);
        if (conn) {
            const std::vector<std::uint8_t> bye =
                encodeFrame(MsgType::Bye, {});
            conn->writeAll(bye.data(), bye.size());
            conn->close();
        }
    }
    if (sender.joinable())
        sender.join();
    if (receiver.joinable())
        receiver.join();

    // Threads are gone; whatever is still in flight gets a typed
    // shutdown outcome on this thread, honouring fire-exactly-once.
    std::vector<std::pair<std::uint64_t, Callback>> leftovers;
    {
        std::lock_guard<std::mutex> lock(mu);
        for (auto &entry : inflight)
            leftovers.emplace_back(entry.first,
                                   std::move(entry.second.done));
        inflight.clear();
        sendQueue.clear();
    }
    std::sort(leftovers.begin(), leftovers.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    PredictOutcome outcome;
    outcome.ok = false;
    outcome.error = ErrorCode::ShuttingDown;
    for (auto &entry : leftovers) {
        if (entry.second)
            entry.second(entry.first, outcome);
    }
    cv.notify_all();
}

ClientStats
AsyncPredictionClient::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

std::string
AsyncPredictionClient::statsJson()
{
    const Frame frame = control(MsgType::Stats, encodeStats(StatsMsg{}));
    StatsReplyMsg reply;
    util::fatalIf(
        static_cast<MsgType>(frame.type) != MsgType::StatsReply ||
            !decodeStatsReply(frame.payload, reply),
        "prediction client: Stats got frame type ", frame.type);
    const ClientStats c = stats();
    std::ostringstream os;
    os << "{\n"
       << "  \"client\": {\n"
       << "    \"requests_sent\": " << c.requestsSent << ",\n"
       << "    \"busy_replies\": " << c.busyReplies << ",\n"
       << "    \"retries\": " << c.retries << ",\n"
       << "    \"backoff_sleeps\": " << c.backoffSleeps << ",\n"
       << "    \"reconnects\": " << c.reconnects << ",\n"
       << "    \"deadline_expired\": " << c.deadlineExpired << ",\n"
       << "    \"duplicate_replies\": " << c.duplicateReplies
       << "\n  },\n"
       << "  \"server_report\": " << reply.json << "}\n";
    return os.str();
}

// ===================================================================
// PredictionClient: submit-and-wait
// ===================================================================

PredictionClient::PredictionClient(
    std::unique_ptr<Connection> connection)
    : PredictionClient(std::move(connection), RetryOptions{})
{
}

PredictionClient::PredictionClient(
    std::unique_ptr<Connection> connection, RetryOptions retry)
    : window(retry.enabled ? kRetryWindow
                           : std::numeric_limits<std::size_t>::max()),
      client(std::move(connection), std::move(retry))
{
}

PredictionClient::PredictionClient(RetryOptions retry)
    : window(kRetryWindow), client(std::move(retry))
{
}

PredictReplyMsg
PredictionClient::predict(std::uint32_t stream_id,
                          const rtl::JobInput &job)
{
    return predictMany(stream_id, std::vector<rtl::JobInput>(1, job))
        .front();
}

std::vector<PredictReplyMsg>
PredictionClient::predictMany(std::uint32_t stream_id,
                              const std::vector<rtl::JobInput> &jobs)
{
    std::vector<PredictReplyMsg> replies;
    replies.reserve(jobs.size());
    for (const PredictOutcome &outcome :
         predictManyOutcomes(stream_id, jobs, 0)) {
        util::fatalIf(!outcome.ok,
                      "PredictionClient: request failed with ",
                      errorCodeName(outcome.error),
                      " (predictMany expects every job answered; use "
                      "predictManyOutcomes for deadline workloads)");
        replies.push_back(outcome.reply);
    }
    return replies;
}

std::vector<PredictOutcome>
PredictionClient::predictManyOutcomes(
    std::uint32_t stream_id, const std::vector<rtl::JobInput> &jobs,
    std::uint64_t deadline_micros)
{
    std::vector<PredictOutcome> outcomes(jobs.size());
    for (std::size_t i = 0; i < jobs.size();) {
        const std::size_t end = i + std::min(window, jobs.size() - i);
        for (; i < end; ++i)
            client.submit(
                stream_id, jobs[i],
                [&outcomes, i](std::uint64_t, const PredictOutcome &o) {
                    outcomes[i] = o;
                },
                deadline_micros);
        client.drain();
    }
    return outcomes;
}

} // namespace serve
} // namespace predvfs
