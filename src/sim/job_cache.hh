/**
 * @file
 * Content-addressed memoization of prepared jobs.
 *
 * A prepared record's value fields — full-design cycles and energy
 * units, slice cycles/energy, predicted cycles — are a pure function
 * of (design, predictor, job field vector): the interpreter is
 * deterministic and jobs carry no hidden state. The cache exploits
 * that by keying on a *stream key* (a content hash of the design plus
 * a fingerprint of the trained predictor, computed by the engine) and
 * the job's canonical field vector. Duplicate-heavy workloads (H.264
 * mode dispatch, fixed-size AES/SHA buffers) then simulate each unique
 * field vector once per process, and grid sweeps re-preparing the same
 * stream hit for every job.
 *
 * Fault schedules are deliberately outside the key: prepare() caches
 * only the clean simulation and re-applies FaultSchedule effects after
 * fan-out, so a per-job-index fault mutates the copies, never the
 * cached master (see SimulationEngine::prepare).
 *
 * Eviction is a strict LRU over a byte budget. For a serial probe
 * sequence the hit/miss/eviction history is a pure function of the
 * sequence and the capacity — the determinism the eviction tests pin
 * down. Under concurrent use (prepare() workers, server shards) the
 * interleaving of probes is schedule-dependent, so hit *rates* may
 * vary run to run, but never values: a hit returns exactly the bytes
 * an insert stored, and the full canonical key is compared on lookup,
 * so a 64-bit hash collision cannot alias two different jobs.
 */

#ifndef PREDVFS_SIM_JOB_CACHE_HH
#define PREDVFS_SIM_JOB_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rtl/design.hh"

namespace predvfs {
namespace sim {

/** The memoised payload: every value field prepare() computes. */
struct CachedJob
{
    std::uint64_t cycles = 0;
    double energyUnits = 0.0;
    std::uint64_t sliceCycles = 0;
    double sliceEnergyUnits = 0.0;
    double predictedCycles = 0.0;
};

/** Bounded, LRU-evicted map from (stream key, field vector) to the
 *  clean simulation results of one job. Thread-safe. */
class JobCache
{
  public:
    /** Default byte budget of the process-global cache. */
    static constexpr std::size_t defaultCapacityBytes = 64u << 20;

    /** @param capacity_bytes 0 disables storage (every probe misses). */
    explicit JobCache(std::size_t capacity_bytes = defaultCapacityBytes);

    /** Counters since construction (or the last clear()). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        std::size_t bytes = 0;
        std::size_t capacityBytes = 0;

        /** @return hits / (hits + misses), 0 when no probes. */
        double hitRate() const;
    };

    /**
     * Probe for @p job under @p stream_key; a hit copies the payload
     * into @p out and refreshes the entry's LRU position. On a miss,
     * non-null @p key_out / @p hash_out receive the canonical key and
     * its hash so the caller can dedup and insert without recomputing
     * them (they are untouched on a hit).
     */
    bool lookup(std::uint64_t stream_key, const rtl::JobInput &job,
                CachedJob &out,
                std::vector<std::int64_t> *key_out = nullptr,
                std::uint64_t *hash_out = nullptr);

    /**
     * Insert (or refresh) the clean simulation result of @p job.
     * Entries larger than the whole budget are not stored. Evicts
     * least-recently-used entries until the new entry fits.
     */
    void insert(std::uint64_t stream_key, const rtl::JobInput &job,
                const CachedJob &value);

    /** insert() with a precomputed canonical key and hash (as filled
     *  by a missing lookup()); avoids rebuilding and rehashing it. */
    void insert(std::vector<std::int64_t> key, std::uint64_t hash,
                const CachedJob &value);

    Stats stats() const;

    /** Drop every entry and reset the counters. */
    void clear();

    /** Outcome of loadSnapshotFile(): how much of the file survived. */
    struct SnapshotLoadStats
    {
        std::size_t loaded = 0;    //!< Entries inserted.
        std::size_t rejected = 0;  //!< Entries dropped (corrupt/filtered).
        bool tornTail = false;     //!< Footer missing or wrong — the
                                   //!< file was truncated mid-write.
    };

    /**
     * Write every entry to @p path, crash-safely: the snapshot is
     * serialised to @p path + ".tmp" and atomically renamed into
     * place, so a crash mid-write leaves either the old snapshot or
     * none — never a half-written file under the final name. Each
     * entry line carries its own FNV-1a checksum and a footer
     * checksums the whole body (persist.cc conventions). Entries are
     * written least-recently-used first so a later load restores the
     * recency order. @return false (with a warning) on I/O failure.
     */
    bool saveSnapshotFile(const std::string &path) const;

    /**
     * Load a snapshot written by saveSnapshotFile(). Corruption is
     * rejected entry-by-entry, never fatally: a line whose checksum,
     * shape, or key fails validation is skipped and counted in
     * @ref SnapshotLoadStats::rejected, and a missing or mismatching
     * footer flags tornTail while keeping every valid entry before
     * the tear. When @p accept_stream_keys is non-null, entries whose
     * stream key (design ⊕ predictor fingerprint) is not in the set
     * are rejected — a snapshot from different designs or retrained
     * predictors must not seed this process's cache.
     */
    SnapshotLoadStats loadSnapshotFile(
        const std::string &path,
        const std::unordered_set<std::uint64_t> *accept_stream_keys =
            nullptr);

    std::size_t capacityBytes() const { return capacity; }

    /**
     * The process-global cache shared by every SimulationEngine.
     * Capacity comes from PREDVFS_CACHE_BYTES (bytes; first read
     * wins), defaulting to defaultCapacityBytes.
     */
    static JobCache &global();

    /** False when PREDVFS_DISABLE_CACHE=1 was set at first query. */
    static bool enabledByEnv();

    /** @name Content hashing (shared by the engine's stream keys) */
    /// @{
    /**
     * 64-bit content hash over a byte range: a multiply-xorshift mix
     * consuming eight bytes per step (canonical keys run to hundreds
     * of kilobytes on image workloads, so a byte-at-a-time hash would
     * dominate warm probes). In-memory only — the value is never
     * persisted, so the function is free to change between builds.
     */
    static std::uint64_t hashBytes(const void *data, std::size_t n,
                                   std::uint64_t seed = fnvOffset);

    /** Content hash of a validated design (its serialised text). */
    static std::uint64_t hashDesign(const rtl::Design &design);

    /**
     * Canonical flattening of a job's field vectors: item count, then
     * per item its field count and fields. Two jobs flatten equal iff
     * every item's every field is equal — the cache's exact key.
     */
    static std::vector<std::int64_t>
    canonicalKey(std::uint64_t stream_key, const rtl::JobInput &job);

    /** hashBytes() of canonicalKey(), computed by streaming over the
     *  job without materialising the key vector — probes allocate
     *  nothing. */
    static std::uint64_t hashJob(std::uint64_t stream_key,
                                 const rtl::JobInput &job);

    /** @return true iff @p key == canonicalKey(stream_key, job),
     *  compared structurally without building the flattening. */
    static bool keyMatchesJob(const std::vector<std::int64_t> &key,
                              std::uint64_t stream_key,
                              const rtl::JobInput &job);
    /// @}

    static constexpr std::uint64_t fnvOffset = 1469598103934665603ull;

  private:
    struct Entry
    {
        std::vector<std::int64_t> key;  //!< Canonical key, exact.
        std::uint64_t hash = 0;
        CachedJob value;
        std::size_t bytes = 0;
    };

    using EntryList = std::list<Entry>;

    static std::size_t entryBytes(const Entry &entry);
    void evictToFit(std::size_t incoming_bytes);

    mutable std::mutex mu;
    std::size_t capacity;
    std::size_t usedBytes = 0;
    EntryList lru;  //!< Front = most recently used.
    std::unordered_map<std::uint64_t, std::vector<EntryList::iterator>>
        index;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t insertCount = 0;
    std::uint64_t evictCount = 0;
};

} // namespace sim
} // namespace predvfs

#endif // PREDVFS_SIM_JOB_CACHE_HH
