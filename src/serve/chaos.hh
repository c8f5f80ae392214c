/**
 * @file
 * Seeded fault injection for serve transports.
 *
 * chaosWrap() decorates a Connection with the network's bad days:
 * writes fragmented into arbitrary chunks, writes that stall part-way
 * before sending their tail, reads truncated to a few bytes, and
 * mid-frame disconnects. Every decision is drawn from an Rng seeded
 * by (plan seed, connection index) — the same discipline as
 * sim/fault's FaultSchedule, lifted to the byte-transport layer.
 *
 * The faults deliberately preserve what a real kernel socket
 * preserves: bytes that are delivered arrive in order and unmodified.
 * Chaos never corrupts payloads — corruption-at-rest is the frame
 * decoder corpus's job — it only re-times, fragments, and severs. A
 * correct client/server pair must therefore produce byte-identical
 * replies under any chaos schedule; divergence is a protocol bug, not
 * an artefact of the harness.
 *
 * Reads and writes draw from separate seeded streams and share no
 * other state, so one reader thread and one writer thread may use a
 * wrapped endpoint at once — as the client's receiver and sender do.
 * Two threads must not write (or read) concurrently.
 */

#ifndef PREDVFS_SERVE_CHAOS_HH
#define PREDVFS_SERVE_CHAOS_HH

#include <cstdint>
#include <memory>

#include "serve/transport.hh"

namespace predvfs {
namespace serve {

/** Fault rates for one chaos-wrapped connection; all in [0, 1]. */
struct ChaosPlan
{
    /** Root seed; combined with the connection index so each wrapped
     *  connection draws an independent, reproducible stream. */
    std::uint64_t seed = 1;

    double partialWriteRate = 0.0;  //!< Fragment a write into chunks.
    double delayFlushRate = 0.0;    //!< Stall a write part-way
                                    //!< before sending its tail.
    double shortReadRate = 0.0;     //!< Cap a read at 1–7 bytes.
    double disconnectRate = 0.0;    //!< Sever mid-write, dropping the
                                    //!< unsent suffix.

    /**
     * A balanced plan at overall intensity @p rate: fragmentation,
     * stalled writes, and short reads at @p rate each, disconnects at a
     * quarter of it (each disconnect costs a reconnect round trip, so
     * equal weighting would drown the soak in handshakes).
     */
    static ChaosPlan uniform(std::uint64_t seed, double rate)
    {
        ChaosPlan plan;
        plan.seed = seed;
        plan.partialWriteRate = rate;
        plan.delayFlushRate = rate;
        plan.shortReadRate = rate;
        plan.disconnectRate = rate / 4.0;
        return plan;
    }
};

/**
 * Wrap @p inner in seeded chaos. @p connection_index distinguishes
 * connections sharing one plan (client N of a soak) — each
 * direction's fault sequence is a pure function of (plan.seed,
 * connection_index, the order of that direction's calls).
 */
std::unique_ptr<Connection> chaosWrap(std::unique_ptr<Connection> inner,
                                      const ChaosPlan &plan,
                                      std::uint64_t connection_index);

} // namespace serve
} // namespace predvfs

#endif // PREDVFS_SERVE_CHAOS_HH
