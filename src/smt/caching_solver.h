#ifndef KEQ_SMT_CACHING_SOLVER_H
#define KEQ_SMT_CACHING_SOLVER_H

/**
 * @file
 * Memoizing decorator around any Solver.
 *
 * Cut-bisimulation checking re-proves near-identical implications at every
 * synchronization point, and corpus functions repeat whole query shapes —
 * yet every backend miss costs a Z3 check. The
 * CachingSolver normalizes every query to a canonical key (sorted, deduped
 * assertion fingerprints) and memoizes definitive Sat/Unsat verdicts, so
 * repeated queries are answered without touching the backend.
 *
 * Soundness:
 *  - Keys are exact structural fingerprints (a linearized serialization of
 *    the term DAG), not lossy hashes, and are independent of the owning
 *    TermFactory — a cache may be shared across workers that each own a
 *    private factory (hash-consing stays thread-local; only the sharded
 *    cache map takes locks).
 *  - Sat/Unsat are definitive regardless of timeouts, so caching them can
 *    never change a verdict. Unknown results (timeouts, incompleteness)
 *    are NEVER cached: a later query with a larger budget must get a fresh
 *    chance to resolve.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/simplifier.h"
#include "src/smt/slicer.h"
#include "src/smt/solver.h"
#include "src/smt/term_factory.h"

namespace keq::smt {

/** Snapshot of one cache's counters (aggregated over shards). */
struct CacheStats
{
    uint64_t hits = 0;      ///< lookups answered by a stored verdict
    uint64_t misses = 0;    ///< lookups that found no stored verdict
    uint64_t modelHits = 0; ///< misses answered Sat by a reused model
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;     ///< accounted size of resident entries

    // Trust-but-verify accounting. Preloaded entries arrive from a
    // persisted journal and are "unaudited" until an independent
    // recheck confirms them; a mismatch quarantines the entry (it is
    // removed and the query re-solved fresh).
    uint64_t preloaded = 0;       ///< entries inserted as unaudited
    uint64_t auditPasses = 0;     ///< audits that confirmed the verdict
    uint64_t auditMismatches = 0; ///< audits that contradicted it
    uint64_t quarantined = 0;     ///< entries removed by quarantine()

    /** Fraction of lookups that avoided the backend entirely. */
    double
    hitRate() const
    {
        uint64_t lookups = hits + misses;
        return lookups == 0
                   ? 0.0
                   : static_cast<double>(hits + modelHits) /
                         static_cast<double>(lookups);
    }

    /** Queries that actually reached the backing solver. */
    uint64_t
    backendCalls() const
    {
        return misses - modelHits;
    }
};

/**
 * Thread-safe verdict store keyed by canonical query fingerprints.
 *
 * Sharded by key hash: concurrent workers contend only when they touch
 * the same shard, and each shard holds its mutex just for one map
 * operation — the solver call itself never runs under a lock.
 *
 * Eviction is least-recently-used per shard, bounded both by an entry
 * count and by an accounted byte budget (keys dominate the footprint;
 * each entry is charged its key size plus a fixed node overhead), so a
 * week-long campaign cannot grow the cache without bound. The
 * most-recently-inserted entry is never evicted, so even a query whose
 * key alone exceeds the budget still caches once.
 */
class QueryCache
{
  public:
    /** Default byte budget (~512 MB); --solver-cache-mb overrides. */
    static constexpr size_t kDefaultMaxBytes = size_t(512) << 20;
    /** Per-entry bookkeeping charge on top of the key bytes. */
    static constexpr size_t kEntryOverheadBytes = 128;
    /** Default entry-count threshold of each shard. */
    static constexpr size_t kDefaultMaxEntriesPerShard = 1 << 16;

    /**
     * @param max_entries_per_shard Entry-count threshold (0 = none).
     * @param max_bytes Byte budget across all shards (0 = none).
     */
    explicit QueryCache(size_t max_entries_per_shard =
                            kDefaultMaxEntriesPerShard,
                        size_t max_bytes = kDefaultMaxBytes);

    /**
     * @param unaudited When non-null, set to whether the entry was
     *                  preloaded from a persisted journal and has not
     *                  yet survived a trust-but-verify audit.
     */
    std::optional<SatResult> lookup(const std::string &key,
                                    bool *unaudited = nullptr);

    /**
     * Stores a definitive verdict; Unknown is ignored by contract.
     * @return Number of LRU entries evicted to make room.
     */
    size_t insert(const std::string &key, SatResult result);

    /**
     * Like insert(), but marks the entry unaudited and never fires the
     * insert listener: the caller (the daemon's verdict store) already
     * has the record, and the verdict is a month-old *claim* until an
     * audit replays it. A key that is already resident is left as-is.
     */
    size_t insertPreloaded(const std::string &key, SatResult result);

    /** Clears the unaudited flag after a recheck confirmed the entry. */
    void markAudited(const std::string &key);

    /**
     * Removes an entry whose audit recheck contradicted it. The next
     * lookup misses and the query is solved fresh.
     * @return true when the key was resident.
     */
    bool quarantine(const std::string &key);

    /**
     * Model pool for Sat-by-evaluation reuse: retains the most recent
     * satisfying assignments (a bounded ring). A pooled model answers a
     * *new* query only after the CachingSolver re-verifies it by
     * concrete evaluation, so stale or mismatched models cost a lookup,
     * never a wrong verdict.
     */
    void addModel(std::shared_ptr<const Assignment> model);
    std::vector<std::shared_ptr<const Assignment>> models() const;
    /** Records a miss that a pooled model answered (CacheStats). */
    void noteModelHit();

    CacheStats stats() const;
    void clear();

    /**
     * Observer invoked (outside any shard lock) for every *fresh*
     * insert — touches of an existing key do not fire. The validation
     * daemon subscribes its cross-run verdict store here so every new
     * verdict is journaled the moment it is memoized. Set before the
     * cache is shared across threads; the listener itself must be
     * thread-safe.
     */
    using InsertListener =
        std::function<void(const std::string &, SatResult)>;
    void setInsertListener(InsertListener listener);

  private:
    static constexpr size_t kShards = 16;
    static constexpr size_t kMaxModels = 64;

    struct Entry
    {
        std::string key;
        SatResult result;
        /** Preloaded from a journal and not yet audit-confirmed. */
        bool unaudited = false;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        /** LRU order, front = most recently used; owns the keys. */
        std::list<Entry> lru;
        /** Views into lru's keys; list nodes never move. */
        std::unordered_map<std::string_view, std::list<Entry>::iterator>
            map;
        uint64_t bytes = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t preloaded = 0;
        uint64_t auditPasses = 0;
        uint64_t auditMismatches = 0;
        uint64_t quarantined = 0;
    };

    static size_t entryBytes(const std::string &key)
    {
        return key.size() + kEntryOverheadBytes;
    }

    Shard &shardFor(const std::string &key);
    size_t insertImpl(const std::string &key, SatResult result,
                      bool preloaded);

    size_t maxPerShard_;
    size_t maxBytesPerShard_;
    std::array<Shard, kShards> shards_;
    InsertListener insertListener_;

    mutable std::mutex modelMutex_;
    std::vector<std::shared_ptr<const Assignment>> models_;
    size_t modelNext_ = 0;
    uint64_t modelHits_ = 0;
};

/**
 * Solver decorator running the query optimization stack in front of the
 * backend: simplify -> slice -> cache -> backend.
 *
 * Stages, tried in order (each may answer without the next):
 *  1. rewrite engine — the Simplifier normalizes the query and decides
 *     structurally trivial ones (rewrites to `false` => Unsat, rewrites
 *     away => Sat);
 *  2. cone-of-influence slicer — variable-disjoint cones with a
 *     verified witness are pruned; a fully discharged query is Sat;
 *  3. verdict store — exact canonical-key match on the *reduced* query
 *     returns the stored Sat/Unsat;
 *  4. model reuse — on a key miss, recent satisfying assignments from
 *     the pool are evaluated against the query (memoized concrete
 *     evaluation, microseconds); if one satisfies every assertion the
 *     query is Sat by construction, no solver needed. This pays off on
 *     path-feasibility checks, which dominate Sat traffic and rarely
 *     repeat exactly but are usually satisfied by a neighboring path's
 *     model.
 * Simplification and slicing also shrink what stages 3-4 fingerprint
 * and what the backend must solve, so they speed up misses too.
 *
 * Stats contract (relied on by the checker, which reads query *deltas*):
 * `queries` counts every checkSat call whether or not it hit, and
 * sat/unsat/unknown count returned results — so a cached run reports the
 * same query/verdict counts as an uncached one and only totalSeconds
 * (backend time actually spent) shrinks. Every query is resolved by
 * exactly one stage:
 *   rewriteResolved + sliceResolved + cacheHits + cacheMisses == queries
 * where cacheHits counts queries answered by the verdict store or a
 * reused model, and cacheMisses counts queries that reached the
 * backend. The Backend-class counters (CounterClass::Backend: backend
 * checks, recovery, transport) are folded in from the backend's
 * own stats per call, so one SolverStats describes the whole stack.
 */
/**
 * Preprocessing configuration for CachingSolver. Both stages run before
 * the cache by default; tests that assert exact backend-call counts
 * construct with `{false, false}` to pin the PR 1 cache-only behavior.
 */
struct CachingSolverOptions
{
    /** Run the Simplifier (rewrite + equality propagation) first. */
    bool simplify = true;
    /** Run the cone-of-influence Slicer on the simplified set. */
    bool slice = true;

    // --- Trust-but-verify auditing of warm (preloaded) hits. --------
    //
    // A verdict replayed from a month-old journal is a cached *claim*.
    // With auditRate > 0, a deterministic sample of unaudited hits is
    // independently re-checked before being served: a stored Sat by
    // Evaluator model replay (cheap, a concrete-evaluation *proof*),
    // falling back to a pristine solver; a stored Unsat by a pristine
    // solver recheck. A confirming recheck marks the entry audited; a
    // contradicting one quarantines it and the query falls through to
    // the normal miss path (model reuse, then backend) — so the served
    // verdict is byte-identical to what a daemonless run computes. An
    // Unknown recheck is inconclusive: the stored verdict is served
    // and the entry stays unaudited for a later, luckier sample.

    /** Fraction of unaudited hits to re-check (0 = off, 1 = all). */
    double auditRate = 0.0;
    /** Salt for the deterministic per-key sampling decision. */
    uint64_t auditSeed = 0;
    /**
     * Builds the pristine re-check solver (typically a fresh
     * Z3Solver). Required for auditing stored-Unsat entries and for
     * Sat entries model replay fails to confirm; when null those
     * audits are inconclusive.
     */
    std::function<std::unique_ptr<Solver>(TermFactory &)>
        auditSolverFactory;
    /**
     * Invoked (outside any cache lock) when an audit contradicts a
     * stored verdict, after the entry is quarantined and before the
     * fresh solve. The daemon hooks this to tombstone the journal
     * record and log a typed FailureKind::AuditMismatch.
     */
    std::function<void(const std::string &key, SatResult stored,
                       SatResult recheck)>
        onAuditMismatch;
};

class CachingSolver : public Solver
{
  public:
    using Options = CachingSolverOptions;

    /**
     * @param factory Factory owning the terms this solver will receive.
     * @param backend Solver that misses fall through to; must outlive
     *                this decorator.
     * @param cache Verdict store, possibly shared with other workers'
     *              CachingSolvers.
     * @param options Which preprocessing stages to run before the cache.
     */
    CachingSolver(TermFactory &factory, Solver &backend,
                  std::shared_ptr<QueryCache> cache,
                  Options options = Options());

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override;
    void setMemoryBudgetMb(unsigned budget_mb) override;
    void interruptQuery() override;
    std::string lastUnknownReason() const override;
    FailureKind lastFailureKind() const override;
    const SolverStats &stats() const override { return stats_; }

    const std::shared_ptr<QueryCache> &
    cache() const
    {
        return cache_;
    }

    /**
     * Canonical fingerprint of a query: per-assertion structural
     * serializations, sorted and deduplicated. Assertion order and
     * duplicates never change the key (conjunction is commutative,
     * associative and idempotent). Exposed for the property tests.
     */
    static std::string normalizedKey(const std::vector<Term> &assertions);

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    /**
     * Tries to answer @p assertions without the backend: first with
     * pooled models, then with deterministic random probes (seeded from
     * @p key). Returns Sat when some assignment provably satisfies
     * every assertion under concrete evaluation; nullopt otherwise
     * (never Unsat — failing to find a model proves nothing).
     */
    std::optional<SatResult>
    tryModelReuse(const std::vector<Term> &assertions,
                  const std::string &key);

    /** Deterministic per-key audit sampling decision. */
    bool shouldAudit(const std::string &key) const;

    /** What an audit recheck concluded about a stored verdict. */
    enum class AuditOutcome { Pass, Mismatch, Inconclusive };

    /**
     * Independently re-checks @p stored for @p assertions: Sat via
     * model replay then pristine solver, Unsat via pristine solver.
     */
    AuditOutcome auditCachedVerdict(const std::vector<Term> &assertions,
                                    const std::string &key,
                                    SatResult stored);

    /** Tallies a returned verdict into sat/unsat/unknown. */
    void countVerdict(SatResult result);

    TermFactory &factory_;
    Solver &backend_;
    std::shared_ptr<QueryCache> cache_;
    Options options_;
    Simplifier simplifier_;
    Slicer slicer_;
    SolverStats stats_;
};

} // namespace keq::smt

#endif // KEQ_SMT_CACHING_SOLVER_H
