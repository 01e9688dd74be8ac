#ifndef KEQ_SERVICE_VERDICT_STORE_H
#define KEQ_SERVICE_VERDICT_STORE_H

/**
 * @file
 * Cross-run verdict store: the write-ahead journal behind the daemon's
 * shared smt::QueryCache.
 *
 * The QueryCache memoizes Sat/Unsat verdicts under canonical
 * alpha-renamed query fingerprints and serves every hit, but it dies
 * with the process. The VerdictStore gives those verdicts a disk life
 * through the journal layer (support::Journal: checksummed, escaped,
 * torn-tail tolerant), so two clients validating the same function
 * pair — today or next week — pay for one solve. The store keeps no
 * copy of any verdict in memory: the cache is the only memo.
 *
 * Lifecycle:
 *  - open() scans the journal, replays it in file order (a later
 *    record of a key supersedes an earlier one, a tombstone kills the
 *    record before it), preloads the survivors into the cache as
 *    *unaudited* entries (month-old claims until the trust-but-verify
 *    audit confirms them) and subscribes to the cache's fresh inserts;
 *  - every *fresh* cache insert (a verdict the backend just earned) is
 *    appended under the current generation stamp;
 *  - quarantine() appends a tombstone for a verdict an audit recheck
 *    contradicted (QueryCache::quarantine evicts the entry), so the
 *    rotten verdict stays dead across restarts;
 *  - compact() re-reads the journal, keeps the last live record per
 *    key and rewrites them under a new generation (temp file plus
 *    rename). Every record it keeps has passed its line checksum, so a
 *    record that rotted on disk is dropped, never preloaded. open()
 *    compacts when the load found corrupt or dead records; the daemon
 *    wires SIGHUP to compact().
 *
 * Soundness guards: Unknown is never stored (same contract as
 * QueryCache); the journal is scanned in skip-corrupt mode, so a
 * bit-flipped record fails its line checksum and is dropped alone —
 * records after it still load, and a torn tail loses only the torn
 * record.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/smt/caching_solver.h"
#include "src/smt/solver.h"
#include "src/support/journal.h"

namespace keq::service {

class VerdictStore
{
  public:
    /** Journal schema tag (support::Journal header). */
    static constexpr const char *kKind = "verdict-store";

    struct Stats
    {
        uint64_t loaded = 0;   ///< live verdicts preloaded by open()
        uint64_t appended = 0; ///< fresh verdicts journaled this run
        uint64_t droppedRecords = 0; ///< corrupt, torn or unparsable
        uint64_t quarantined = 0; ///< tombstones written this run
        uint64_t compactions = 0; ///< journal rewrites this run
        uint64_t generation = 0;  ///< current compaction generation
    };

    struct Options
    {
        /** Journal file; empty = memory-only (nothing is journaled). */
        std::string path;
        /** Durability policy for appended records. */
        support::FsyncPolicy fsync = support::FsyncPolicy::Off;
    };

    explicit VerdictStore(Options options);

    /**
     * Loads the journal (missing file = fresh store) into @p cache as
     * unaudited entries and journals the cache's fresh inserts from
     * then on. Call once, before the cache is shared across sessions.
     * False with @p error when the file carries the wrong journal kind
     * — pointing the daemon at a checkpoint file is a user error.
     */
    bool open(smt::QueryCache &cache, std::string &error);

    /**
     * Appends a tombstone for @p key, so a verdict an audit recheck
     * contradicted stays dead across restarts. Thread safe.
     */
    void quarantine(const std::string &key);

    /**
     * Rewrites the journal from its own checksummed records under a
     * new generation, reclaiming superseded, tombstoned and corrupt
     * records. Appends wait behind the store mutex. Thread safe.
     * @return Number of live records kept.
     */
    size_t compact();

    /** Flushes the journal to stable storage (drain path). */
    void sync();

    Stats stats() const;

  private:
    using Verdicts = std::vector<std::pair<std::string, smt::SatResult>>;

    /** The insert listener: journals one fresh verdict. */
    void append(const std::string &key, smt::SatResult verdict);

    /** Replays @p records in file order; returns the live verdicts. */
    Verdicts replayLocked(std::vector<std::string> records,
                          uint64_t &deadRecords);

    /** Replaces the journal with @p live under a new generation. */
    void rewriteLocked(const Verdicts &live);

    Options options_;
    mutable std::mutex mutex_;
    std::unique_ptr<support::JournalWriter> writer_;
    uint64_t generation_ = 1;
    Stats stats_;
};

} // namespace keq::service

#endif // KEQ_SERVICE_VERDICT_STORE_H
