/**
 * @file
 * Client side of the prediction service.
 *
 * AsyncPredictionClient is the one implementation of the wire
 * protocol: it performs the Hello handshake, resolves benchmark names
 * to stream handles, and ships each submitted job the moment submit()
 * is called, delivering its typed outcome through a completion
 * callback. PredictionClient is submit-and-wait over it: it owns one
 * AsyncPredictionClient, submits a burst, and drains it, so both
 * clients share a single request state machine, retry policy and
 * reconnect routine.
 *
 * Fault tolerance is opt-in via RetryOptions. A client with retries
 * enabled absorbs the server's explicit backpressure: Busy replies
 * park the request for a capped exponential backoff (seeded,
 * deterministic jitter; the server's retry-after hint sets the floor)
 * and re-send it under the *same* requestId — the in-flight table
 * keyed by requestId makes re-sends idempotent at the client, so a
 * reply that races a retry is delivered once and the duplicate is
 * counted, not surfaced. With a connect factory configured, a dropped
 * connection (mid-frame EOF, ShuttingDown) is re-dialled, streams are
 * re-opened by name, and every unanswered request is re-sent; the
 * server's byte-determinism guarantees a re-executed request returns
 * the identical reply. Without RetryOptions any Error frame or
 * disconnect that affects a request is fatal(), which is what the
 * known-good test harnesses want.
 */

#ifndef PREDVFS_SERVE_CLIENT_HH
#define PREDVFS_SERVE_CLIENT_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hh"
#include "serve/transport.hh"
#include "util/random.hh"

namespace predvfs {
namespace serve {

/** Retry/backoff policy; default-constructed = no fault tolerance.
 *  The fixed limits (livelock bound, burst window, backoff range,
 *  dial attempts) are named constants in client.cc. */
struct RetryOptions
{
    /** Enable Busy/deadline handling and (with a factory) reconnect. */
    bool enabled = false;

    /** Seed for the backoff jitter (uniform in [0.5, 1.0] of the
     *  computed delay) — reruns sleep the same schedule. */
    std::uint64_t jitterSeed = 1;

    /** When set, a lost connection is re-dialled through this factory
     *  (fresh handshake, streams re-opened by name, unanswered
     *  requests re-sent). Without it, disconnects stay fatal. */
    std::function<std::unique_ptr<Connection>()> connect;
};

/** Client-side fault counters (see statsJson()). */
struct ClientStats
{
    std::uint64_t requestsSent = 0;     //!< Predict frames written,
                                        //!< re-sends included.
    std::uint64_t busyReplies = 0;      //!< Busy errors received.
    std::uint64_t retries = 0;          //!< Requests re-sent.
    std::uint64_t backoffSleeps = 0;    //!< Backoff waits taken.
    std::uint64_t reconnects = 0;       //!< Successful re-dials.
    std::uint64_t deadlineExpired = 0;  //!< DeadlineExceeded replies.
    std::uint64_t duplicateReplies = 0; //!< Replies dropped by the
                                        //!< in-flight table.
};

/** Terminal result of one request: a reply, or a typed error the
 *  retry policy does not absorb (today: DeadlineExceeded). */
struct PredictOutcome
{
    bool ok = false;
    PredictReplyMsg reply;              //!< Valid when ok.
    ErrorCode error = ErrorCode::BadFrame;  //!< Valid when !ok.
};

/**
 * Asynchronous pipelined protocol client.
 *
 * Each request ships the moment submit() is called and its typed
 * outcome arrives through a completion callback — the producer never
 * waits for the consumer. Internally a *sender* thread drains the
 * submit queue onto the wire and a *receiver* thread matches replies
 * through a requestId-keyed in-flight table: Busy re-queues the
 * request with a seeded, capped exponential backoff (the server's
 * retry-after hint sets the floor); DeadlineExceeded is terminal; a
 * lost connection re-dials through the RetryOptions factory, re-opens
 * streams by name, remaps ids, and re-sends everything unanswered
 * under its original requestId, which keeps re-sends idempotent and
 * duplicate replies countable. An idle client re-dials only when it
 * is next used.
 *
 * Request state machine: Queued → Sent → Done. Busy moves Sent back
 * to Queued (with a not-before time); connection loss moves every
 * Sent back to Queued; completion removes the slot and fires the
 * callback exactly once. Control requests (openStream(),
 * statsJson()) ride the same sender and have their replies routed
 * back by the receiver; a reconnect re-sends them too.
 *
 * Ordering: callbacks may run in any order relative to submission —
 * the server answers expired deadlines before simulated values, and
 * retries reshuffle the wire order. Aggregate by requestId, never by
 * arrival order. Callbacks run on the receiver thread: keep them
 * short, and do not call submit()/drain()/close() or a control
 * request from inside one (stats() and streamKey() are safe).
 *
 * Usage contract: openStream() and statsJson() are called from one
 * thread at a time; drain() blocks until no request is outstanding;
 * close() completes anything still unanswered with a ShuttingDown
 * outcome.
 */
class AsyncPredictionClient
{
  public:
    /** Completion callback: the id submit() returned plus the
     *  request's terminal outcome. */
    using Callback =
        std::function<void(std::uint64_t, const PredictOutcome &)>;

    /** Take ownership of @p connection and handshake. fatal() when
     *  the peer is not a compatible prediction server. */
    explicit AsyncPredictionClient(
        std::unique_ptr<Connection> connection, RetryOptions retry = {});

    /** Dial through @p retry.connect (required), retrying failed
     *  handshakes under the reconnect policy — the entry point for
     *  transports that can fail mid-handshake. */
    explicit AsyncPredictionClient(RetryOptions retry);

    /** close(): outstanding requests get ShuttingDown outcomes. */
    ~AsyncPredictionClient();

    AsyncPredictionClient(const AsyncPredictionClient &) = delete;
    AsyncPredictionClient &
    operator=(const AsyncPredictionClient &) = delete;

    /**
     * Resolve @p benchmark to a served stream. fatal() when the
     * server does not serve it.
     * @return the stream handle for submit() calls.
     */
    std::uint32_t openStream(const std::string &benchmark);

    /** Content-addressed key the server reported when the stream was
     *  opened (design hash ⊕ predictor fingerprint). A reconnect that
     *  finds a different key for the stream is fatal(). */
    std::uint64_t streamKey(std::uint32_t stream_id) const;

    /**
     * Queue one job and return immediately; @p done fires exactly
     * once with the terminal outcome. @p deadline_micros (0 = none)
     * rides on the request; a request the server expires while
     * queued completes with a DeadlineExceeded outcome.
     * @return the requestId @p done will be called with.
     */
    std::uint64_t submit(std::uint32_t stream_id,
                         const rtl::JobInput &job, Callback done,
                         std::uint64_t deadline_micros = 0);

    /** Block until every submitted request has completed and its
     *  callback has returned. */
    void drain();

    /**
     * Send Bye (best effort), stop both threads, close the
     * connection, and complete every still-outstanding request with a
     * ShuttingDown outcome (on the calling thread). Idempotent; the
     * destructor calls it.
     */
    void close();

    /** This client's fault counters (racy snapshot while running). */
    ClientStats stats() const;

    /**
     * Telemetry document: a "client" object with this client's
     * retry/busy/deadline counters, plus the server's full report
     * under "server_report".
     */
    std::string statsJson();

  private:
    using Clock = std::chrono::steady_clock;

    /** One submitted request, keyed by requestId in `inflight`. */
    struct Slot
    {
        std::uint32_t streamId = 0;
        rtl::JobInput job;
        std::uint64_t deadlineMicros = 0;
        Callback done;
        bool sent = false;           //!< Sent (true) vs Queued.
        bool everSent = false;
        Clock::time_point readyAt{};     //!< Busy backoff gate.
        unsigned unanswered = 0;
        std::uint64_t completedAtSend = 0;
    };

    /** An open stream, keyed by the handle openStream() returned. */
    struct StreamHandle
    {
        std::string benchmark;
        std::uint64_t key = 0;       //!< Fixed when first opened.
        std::uint32_t serverId = 0;  //!< Id on the current connection.
    };

    void senderLoop();
    void receiverLoop();

    /** Dispatch one server frame; @return false to stop receiving. */
    bool handleFrame(const Frame &frame);

    /** Retire a slot and run its callback (outside the lock). */
    void complete(std::uint64_t request_id,
                  const PredictOutcome &outcome);

    /** Receiver-side: once there is work, requeue Sent slots and
     *  re-dial, then bump the generation the sender waits on.
     *  @return false when close() interrupted it. */
    bool handleConnectionLost();

    /** Queue a control request for the sender and wait for the
     *  receiver to route back its reply frame. */
    Frame control(MsgType type, const std::vector<std::uint8_t> &payload);

    /** @name Connection-owner helpers (the constructors and the
     *  receiver's reconnect — contexts where the calling thread owns
     *  the connection). */
    /// @{
    /** Dial, handshake and re-open every stream, backing off between
     *  attempts; fatal() when they run out. @return false when
     *  close() interrupted it. */
    bool dial();
    bool handshake();
    bool reopenStreams();
    bool readFrame(Frame &out);
    bool sendRaw(MsgType type, const std::vector<std::uint8_t> &payload);
    /// @}

    /** Jittered, capped backoff duration for round @p round; counts a
     *  backoff sleep. Call with mu held. */
    std::uint64_t backoff(unsigned round, std::uint64_t floor_micros);

    std::unique_ptr<Connection> conn;  //!< Swapped only by dial().
    FrameDecoder decoder;              //!< Owned by the receiver.
    RetryOptions retry;
    std::mutex writeMu;                //!< Serialises wire writes.

    mutable std::mutex mu;             //!< Guards everything below.
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Slot> inflight;
    std::deque<std::uint64_t> sendQueue;  //!< Queued requestIds.
    std::map<std::uint32_t, StreamHandle> streams;
    ClientStats counters;
    util::Rng jitter;
    std::uint64_t nextRequestId = 1;
    std::uint64_t completedCount = 0;
    unsigned busyRound = 0;
    std::size_t dispatching = 0;  //!< Callbacks currently running.
    std::uint64_t generation = 0; //!< Bumped per successful reconnect.
    bool closing = false;
    bool reconnecting = false;    //!< Receiver owns the connection.
    bool senderInSend = false;    //!< Sender is inside writeAll().

    /** The pending control request's encoded frame (empty = none),
     *  and the reply the receiver routed back for it. */
    std::vector<std::uint8_t> controlFrame;
    bool controlSent = false;
    Frame controlReply;
    std::uint64_t controlGen = 0; //!< generation the reply came on.

    std::thread sender;
    std::thread receiver;
};

/**
 * Synchronous protocol client: submit-and-wait over one
 * AsyncPredictionClient.
 *
 * predictMany() submits a burst and drains it — every request is on
 * the wire before the first reply is awaited, which is what lets the
 * server's accumulation window coalesce a client's burst into one
 * batch. Outcomes are matched to jobs by requestId, so any
 * server-side reordering is invisible to the caller. With retries
 * enabled a burst ships in fixed-size windows, each drained before
 * the next, so a mid-burst sever voids one window rather than the
 * whole backlog. Destruction sends Bye (best effort) and closes.
 */
class PredictionClient
{
  public:
    /** Take ownership of @p connection and handshake. fatal() when
     *  the peer is not a compatible prediction server. */
    explicit PredictionClient(std::unique_ptr<Connection> connection);

    /** As above, with a retry policy. */
    PredictionClient(std::unique_ptr<Connection> connection,
                     RetryOptions retry);

    /** Dial through @p retry.connect (required), retrying failed
     *  handshakes under the reconnect policy. */
    explicit PredictionClient(RetryOptions retry);

    /** See AsyncPredictionClient::openStream(). */
    std::uint32_t openStream(const std::string &benchmark)
    {
        return client.openStream(benchmark);
    }

    /** See AsyncPredictionClient::streamKey(). */
    std::uint64_t streamKey(std::uint32_t stream_id) const
    {
        return client.streamKey(stream_id);
    }

    /** One job in, one prepared record out. */
    PredictReplyMsg predict(std::uint32_t stream_id,
                            const rtl::JobInput &job);

    /**
     * Pipelined burst: submit every request, then wait for all of
     * them. Retriable faults (Busy, disconnect with a factory) are
     * absorbed; any other error is fatal().
     * @return replies in @p jobs order.
     */
    std::vector<PredictReplyMsg>
    predictMany(std::uint32_t stream_id,
                const std::vector<rtl::JobInput> &jobs);

    /**
     * predictMany() that reports per-request outcomes instead of
     * insisting on success. @p deadline_micros (0 = none) rides on
     * every request; a request the server expires while queued comes
     * back as a DeadlineExceeded outcome rather than a fatal().
     * @return outcomes in @p jobs order — every job gets exactly one.
     */
    std::vector<PredictOutcome>
    predictManyOutcomes(std::uint32_t stream_id,
                        const std::vector<rtl::JobInput> &jobs,
                        std::uint64_t deadline_micros = 0);

    /** This client's fault counters. */
    ClientStats stats() const { return client.stats(); }

    /** See AsyncPredictionClient::statsJson(). */
    std::string statsJson() { return client.statsJson(); }

    /** Send Bye and close. Idempotent; destruction does it too. */
    void bye() { client.close(); }

  private:
    std::size_t window;  //!< Requests per submit-and-drain round.
    AsyncPredictionClient client;
};

} // namespace serve
} // namespace predvfs

#endif // PREDVFS_SERVE_CLIENT_HH
