#include "src/smt/caching_solver.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <unordered_set>

#include "src/smt/term_node.h"
#include "src/support/diagnostics.h"
#include "src/support/rng.h"
#include "src/support/stopwatch.h"

namespace keq::smt {

namespace {

/**
 * Appends a canonical linearization of @p root's DAG to @p out: every
 * node not yet in @p index is emitted exactly once (operands as
 * back-references), so the result is linear in the DAG size and equal
 * strings mean structurally equal terms. Node identity is purely
 * structural — kind, sort, payload, operand indices — never
 * factory-specific ids, so fingerprints agree across workers with
 * private factories.
 *
 * Variable handling: when @p var_numbers is non-null, variables are
 * emitted as their first-occurrence ordinal instead of their name
 * (alpha-renaming). Satisfiability is invariant under sort-preserving
 * bijective renaming of free variables, so queries that differ only in
 * register numbering or fresh-variable counters — rampant across sync
 * points and corpus functions — collapse onto one cache key. Passing
 * the same maps across several roots serializes a whole assertion set
 * with one consistent renaming.
 */
void
fingerprintTerm(Term root, std::string &out,
                std::unordered_map<const TermNode *, unsigned> &index,
                std::unordered_map<std::string, unsigned> *var_numbers)
{
    struct Frame
    {
        Term term;
        size_t nextOperand = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({root});
    while (!stack.empty()) {
        Frame &frame = stack.back();
        if (index.count(frame.term.node()) != 0) {
            stack.pop_back();
            continue;
        }
        if (frame.nextOperand < frame.term.numOperands()) {
            Term operand = frame.term.operand(frame.nextOperand++);
            if (index.count(operand.node()) == 0)
                stack.push_back({operand});
            continue;
        }

        const Term &term = frame.term;
        out += 'k';
        out += std::to_string(static_cast<unsigned>(term.kind()));
        out += 's';
        out += std::to_string(term.sort().encode());
        switch (term.kind()) {
          case Kind::BvConst:
            out += 'v';
            out += std::to_string(term.bvValue().zext());
            break;
          case Kind::BoolConst:
            out += term.boolValue() ? "b1" : "b0";
            break;
          case Kind::Var:
            if (var_numbers != nullptr) {
                auto [it, inserted] = var_numbers->emplace(
                    term.varName(),
                    static_cast<unsigned>(var_numbers->size()));
                out += 'n';
                out += std::to_string(it->second);
            } else {
                // Length-prefixed so exotic names cannot forge
                // delimiters.
                out += 'n';
                out += std::to_string(term.varName().size());
                out += ':';
                out += term.varName();
            }
            break;
          case Kind::Extract:
            out += 'h';
            out += std::to_string(term.extractHi());
            out += 'l';
            out += std::to_string(term.extractLo());
            break;
          default:
            break;
        }
        for (size_t i = 0; i < term.numOperands(); ++i) {
            out += i == 0 ? '(' : ',';
            out += std::to_string(index.at(term.operand(i).node()));
        }
        if (term.numOperands() > 0)
            out += ')';
        out += ';';

        unsigned id = static_cast<unsigned>(index.size());
        index.emplace(term.node(), id);
        stack.pop_back();
    }
}

/** Fingerprint of one term with fresh (local) maps. */
std::string
localFingerprint(Term root, bool alpha_rename)
{
    std::string out;
    std::unordered_map<const TermNode *, unsigned> index;
    std::unordered_map<std::string, unsigned> vars;
    fingerprintTerm(root, out, index, alpha_rename ? &vars : nullptr);
    return out;
}

/** Free variables of a query, and whether evaluation can decide it. */
struct QueryScan
{
    bool supported = true;
    std::vector<std::pair<std::string, Sort>> vars;
};

QueryScan
scanQuery(const std::vector<Term> &assertions)
{
    QueryScan scan;
    std::unordered_set<const TermNode *> visited;
    std::unordered_set<std::string> seen;
    std::vector<Term> stack(assertions.begin(), assertions.end());
    while (!stack.empty()) {
        Term term = stack.back();
        stack.pop_back();
        if (!visited.insert(term.node()).second)
            continue;
        if (term.kind() == Kind::Var) {
            if (seen.insert(term.varName()).second)
                scan.vars.emplace_back(term.varName(), term.sort());
        } else if (term.kind() == Kind::Eq &&
                   !term.operand(0).sort().isBool() &&
                   !term.operand(0).sort().isBitVec()) {
            // Array equality cannot be decided from a finite overlay.
            scan.supported = false;
            return scan;
        }
        for (size_t i = 0; i < term.numOperands(); ++i)
            stack.push_back(term.operand(i));
    }
    return scan;
}

/** KEQ_CACHE_DEBUG, read once per process rather than per query. */
bool
cacheDebug()
{
    static const bool enabled = std::getenv("KEQ_CACHE_DEBUG") != nullptr;
    return enabled;
}

} // namespace

// --- QueryCache ----------------------------------------------------------

QueryCache::QueryCache(size_t max_entries_per_shard, size_t max_bytes)
    : maxPerShard_(max_entries_per_shard),
      maxBytesPerShard_(max_bytes == 0
                            ? 0
                            : std::max<size_t>(1, max_bytes / kShards))
{}

QueryCache::Shard &
QueryCache::shardFor(const std::string &key)
{
    return shards_[std::hash<std::string>{}(key) % kShards];
}

std::optional<SatResult>
QueryCache::lookup(const std::string &key, bool *unaudited)
{
    Shard &shard = shardFor(key);
    std::unique_lock<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(std::string_view(key));
    if (it == shard.map.end()) {
        ++shard.misses;
        return std::nullopt;
    }
    ++shard.hits;
    // Touch: a hit entry moves to the LRU front. Splicing never
    // invalidates list iterators, so the map stays consistent.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    if (unaudited != nullptr)
        *unaudited = it->second->unaudited;
    return it->second->result;
}

size_t
QueryCache::insert(const std::string &key, SatResult result)
{
    return insertImpl(key, result, /*preloaded=*/false);
}

size_t
QueryCache::insertPreloaded(const std::string &key, SatResult result)
{
    return insertImpl(key, result, /*preloaded=*/true);
}

size_t
QueryCache::insertImpl(const std::string &key, SatResult result,
                       bool preloaded)
{
    KEQ_ASSERT(result != SatResult::Unknown,
               "QueryCache: Unknown verdicts must not be cached");
    Shard &shard = shardFor(key);
    size_t evicted = 0;
    bool fresh = false;
    {
        std::unique_lock<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(std::string_view(key));
        if (it != shard.map.end()) {
            // Deterministic queries cannot change their verdict; just
            // touch. A locally-computed verdict also supersedes the
            // unaudited flag: we just proved the entry ourselves.
            if (!preloaded)
                it->second->unaudited = false;
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            return 0;
        }
        fresh = true;
        shard.lru.push_front(Entry{key, result, preloaded});
        shard.map.emplace(std::string_view(shard.lru.front().key),
                          shard.lru.begin());
        shard.bytes += entryBytes(key);
        if (preloaded)
            ++shard.preloaded;

        // Evict cold entries until both bounds hold again, always
        // keeping the entry just inserted.
        while (shard.lru.size() > 1 &&
               ((maxPerShard_ > 0 && shard.lru.size() > maxPerShard_) ||
                (maxBytesPerShard_ > 0 &&
                 shard.bytes > maxBytesPerShard_))) {
            const auto &victim = shard.lru.back();
            shard.bytes -= entryBytes(victim.key);
            shard.map.erase(std::string_view(victim.key));
            shard.lru.pop_back();
            ++shard.evictions;
            ++evicted;
        }
    }
    // Fire outside the shard lock: the listener may do I/O (the verdict
    // store journals), and must never deadlock against a concurrent
    // lookup on this shard. Preloaded entries never fire — the journal
    // is where they came from.
    if (fresh && !preloaded && insertListener_)
        insertListener_(key, result);
    return evicted;
}

void
QueryCache::markAudited(const std::string &key)
{
    Shard &shard = shardFor(key);
    std::unique_lock<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(std::string_view(key));
    if (it == shard.map.end())
        return; // evicted between lookup and audit; nothing to mark
    it->second->unaudited = false;
    ++shard.auditPasses;
}

bool
QueryCache::quarantine(const std::string &key)
{
    Shard &shard = shardFor(key);
    std::unique_lock<std::mutex> lock(shard.mutex);
    ++shard.auditMismatches;
    auto it = shard.map.find(std::string_view(key));
    if (it == shard.map.end())
        return false;
    shard.bytes -= entryBytes(it->second->key);
    shard.lru.erase(it->second);
    shard.map.erase(it);
    ++shard.quarantined;
    return true;
}

void
QueryCache::setInsertListener(InsertListener listener)
{
    insertListener_ = std::move(listener);
}

void
QueryCache::addModel(std::shared_ptr<const Assignment> model)
{
    std::unique_lock<std::mutex> lock(modelMutex_);
    if (models_.size() < kMaxModels) {
        models_.push_back(std::move(model));
    } else {
        // Overwrite the oldest slot (bounded ring).
        models_[modelNext_] = std::move(model);
        modelNext_ = (modelNext_ + 1) % kMaxModels;
    }
}

std::vector<std::shared_ptr<const Assignment>>
QueryCache::models() const
{
    std::unique_lock<std::mutex> lock(modelMutex_);
    return models_;
}

void
QueryCache::noteModelHit()
{
    std::unique_lock<std::mutex> lock(modelMutex_);
    ++modelHits_;
}

CacheStats
QueryCache::stats() const
{
    CacheStats stats;
    for (const Shard &shard : shards_) {
        std::unique_lock<std::mutex> lock(shard.mutex);
        stats.hits += shard.hits;
        stats.misses += shard.misses;
        stats.evictions += shard.evictions;
        stats.entries += shard.map.size();
        stats.bytes += shard.bytes;
        stats.preloaded += shard.preloaded;
        stats.auditPasses += shard.auditPasses;
        stats.auditMismatches += shard.auditMismatches;
        stats.quarantined += shard.quarantined;
    }
    std::unique_lock<std::mutex> lock(modelMutex_);
    stats.modelHits = modelHits_;
    return stats;
}

void
QueryCache::clear()
{
    for (Shard &shard : shards_) {
        std::unique_lock<std::mutex> lock(shard.mutex);
        shard.map.clear();
        shard.lru.clear();
        shard.bytes = 0;
        shard.hits = 0;
        shard.misses = 0;
        shard.evictions = 0;
        shard.preloaded = 0;
        shard.auditPasses = 0;
        shard.auditMismatches = 0;
        shard.quarantined = 0;
    }
    std::unique_lock<std::mutex> lock(modelMutex_);
    models_.clear();
    modelNext_ = 0;
    modelHits_ = 0;
}

// --- CachingSolver -------------------------------------------------------

CachingSolver::CachingSolver(TermFactory &factory, Solver &backend,
                             std::shared_ptr<QueryCache> cache,
                             Options options)
    : factory_(factory), backend_(backend), cache_(std::move(cache)),
      options_(options), simplifier_(factory), slicer_(factory)
{
    KEQ_ASSERT(cache_ != nullptr, "CachingSolver: null cache");
    backend_.enableModelCapture(true);
}

void
CachingSolver::countVerdict(SatResult result)
{
    switch (result) {
      case SatResult::Sat: ++stats_.sat; break;
      case SatResult::Unsat: ++stats_.unsat; break;
      case SatResult::Unknown: ++stats_.unknown; break;
    }
}

std::optional<SatResult>
CachingSolver::tryModelReuse(const std::vector<Term> &assertions,
                             const std::string &key)
{
    QueryScan scan = scanQuery(assertions);
    if (!scan.supported)
        return std::nullopt;

    // Does this total assignment satisfy every assertion? A `true`
    // return is a satisfiability *proof* (the assignment is a model);
    // `false` proves nothing about the query.
    auto satisfies = [&](const Assignment &candidate) {
        Evaluator eval(candidate);
        try {
            for (const Term &assertion : assertions) {
                if (!eval.evalBool(assertion))
                    return false;
            }
        } catch (const support::InternalError &) {
            // Evaluation strayed outside the supported fragment;
            // treat as "this assignment does not apply".
            return false;
        }
        return true;
    };

    // Phase 1 — pooled models, newest first: they come from the most
    // recent (and thus most similar) queries.
    std::vector<std::shared_ptr<const Assignment>> models =
        cache_->models();
    for (auto it = models.rbegin(); it != models.rend(); ++it) {
        const Assignment &pooled = **it;
        // Extend the pooled model to a total assignment over this
        // query's variables; the extension's values are arbitrary
        // (zero), since evaluation below re-verifies the whole model.
        Assignment total;
        for (const auto &[name, sort] : scan.vars) {
            if (sort.isBitVec()) {
                if (pooled.hasBv(name) &&
                    pooled.bv(name).width() == sort.width()) {
                    total.setBv(name, pooled.bv(name));
                } else {
                    total.setBv(name, support::ApInt(sort.width(), 0));
                }
            } else if (sort.isBool()) {
                total.setBool(name, pooled.hasBool(name)
                                        ? pooled.boolean(name)
                                        : false);
            }
            // Array variables need no entry: unset bytes read as zero.
        }
        if (satisfies(total))
            return SatResult::Sat;
    }

    // Phase 2 — deterministic random probing. Path-feasibility checks
    // (the bulk of Sat traffic) are usually satisfied by a large
    // fraction of the input space, so a few dozen seeded-random
    // assignments often find a model in microseconds where Z3 grinds
    // through bvmul/overflow reasoning for ~100 ms. Seeding from the
    // canonical key keeps the probe sequence — and therefore every
    // verdict and counter — deterministic across runs and threads.
    // Unsat queries pay kProbes cheap evaluations and move on.
    static constexpr int kProbes = 48;
    support::Rng rng(
        static_cast<uint64_t>(std::hash<std::string>{}(key)) ^
        0x9E3779B97F4A7C15ull);
    for (int probe = 0; probe < kProbes; ++probe) {
        Assignment candidate;
        for (const auto &[name, sort] : scan.vars) {
            if (sort.isBitVec()) {
                uint64_t bits;
                switch (probe) {
                  case 0: bits = 0; break;
                  case 1: bits = ~0ull; break;
                  case 2: bits = 1; break;
                  default: bits = rng.next(); break;
                }
                candidate.setBv(name,
                                support::ApInt(sort.width(), bits));
            } else if (sort.isBool()) {
                candidate.setBool(
                    name, probe == 0 ? false : (rng.next() & 1) != 0);
            }
        }
        if (satisfies(candidate)) {
            // Keep the discovered model: neighboring path conditions
            // will likely accept it via phase 1.
            cache_->addModel(std::make_shared<const Assignment>(
                std::move(candidate)));
            return SatResult::Sat;
        }
    }
    if (cacheDebug()) {
        std::fprintf(stderr, "NOREUSE sup=%d nv=%zu h=%zx\n",
                     scan.supported ? 1 : 0, scan.vars.size(),
                     std::hash<std::string>{}(key));
    }
    return std::nullopt;
}

bool
CachingSolver::shouldAudit(const std::string &key) const
{
    if (options_.auditRate <= 0.0)
        return false;
    if (options_.auditRate >= 1.0)
        return true;
    // Deterministic by key (salted): the same entry is either in the
    // sample or not for the whole daemon lifetime, so audit coverage is
    // reproducible and independent of request interleaving. splitmix64
    // decorrelates the hash from the cache's own shard selector.
    uint64_t x = static_cast<uint64_t>(std::hash<std::string>{}(key)) ^
                 options_.auditSeed;
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    double unit = static_cast<double>(x >> 11) * 0x1.0p-53;
    return unit < options_.auditRate;
}

CachingSolver::AuditOutcome
CachingSolver::auditCachedVerdict(const std::vector<Term> &assertions,
                                  const std::string &key,
                                  SatResult stored)
{
    // Cheap first: a stored Sat confirmed by model replay is a concrete
    // evaluation *proof* — no solver involved. Replay failing proves
    // nothing (the probes just missed), so fall through to a pristine
    // recheck rather than calling it a mismatch.
    if (stored == SatResult::Sat &&
        tryModelReuse(assertions, key).has_value())
        return AuditOutcome::Pass;

    if (!options_.auditSolverFactory)
        return AuditOutcome::Inconclusive;
    std::unique_ptr<Solver> pristine =
        options_.auditSolverFactory(factory_);
    if (pristine == nullptr)
        return AuditOutcome::Inconclusive;
    SatResult recheck = pristine->checkSat(assertions);
    if (recheck == SatResult::Unknown)
        return AuditOutcome::Inconclusive;
    if (recheck == stored)
        return AuditOutcome::Pass;

    // Independent contradiction: the journal entry is rotten (or one
    // of the solvers is wrong — either way it cannot be served).
    // Quarantine under the cache lock, then notify outside it.
    cache_->quarantine(key);
    if (options_.onAuditMismatch)
        options_.onAuditMismatch(key, stored, recheck);
    return AuditOutcome::Mismatch;
}

std::string
CachingSolver::normalizedKey(const std::vector<Term> &assertions)
{
    // Stage 1 — order and dedup the assertion set. A conjunction is
    // commutative/associative/idempotent, so order and duplicates must
    // not affect the key. Sorting primarily by the alpha-renamed
    // fingerprint keeps alpha-variant *sets* in the same order (so they
    // meet in stage 2); the exact fingerprint breaks ties
    // deterministically and is the dedup criterion — deduping on the
    // renamed form alone would wrongly merge distinct assertions such
    // as x<y and y<x.
    struct Entry
    {
        std::string alpha;
        std::string exact;
        Term term;
    };
    std::vector<Entry> entries;
    entries.reserve(assertions.size());
    for (const Term &assertion : assertions) {
        entries.push_back({localFingerprint(assertion, true),
                           localFingerprint(assertion, false),
                           assertion});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.alpha != b.alpha)
                      return a.alpha < b.alpha;
                  return a.exact < b.exact;
              });
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const Entry &a, const Entry &b) {
                                  return a.exact == b.exact;
                              }),
                  entries.end());

    // Stage 2 — serialize the sorted set as one DAG with a single
    // consistent variable renaming (first occurrence across the whole
    // set). Equal keys therefore imply the assertion sets are equal up
    // to a sort-preserving bijection of free variables, which preserves
    // satisfiability. Shared subterms across assertions are emitted
    // once; a root marker per assertion records which nodes are
    // asserted.
    std::string key;
    std::unordered_map<const TermNode *, unsigned> index;
    std::unordered_map<std::string, unsigned> var_numbers;
    for (const Entry &entry : entries) {
        fingerprintTerm(entry.term, key, index, &var_numbers);
        key += 'r';
        key += std::to_string(index.at(entry.term.node()));
        key += '\n';
    }
    return key;
}

SatResult
CachingSolver::checkSat(const std::vector<Term> &assertions)
{
    ++stats_.queries;

    // Stage 1 — rewrite engine. Normalizes the query (which also
    // improves key-cache hit rates downstream) and decides structurally
    // trivial obligations outright.
    std::vector<Term> working = assertions;
    if (options_.simplify) {
        SimplifyResult simplified = simplifier_.simplifyQuery(working);
        stats_.rewriteApplications += simplified.rewrites;
        if (simplified.decided.has_value()) {
            ++stats_.rewriteResolved;
            countVerdict(*simplified.decided);
            return *simplified.decided;
        }
        working = std::move(simplified.assertions);
    }

    // Stage 2 — cone-of-influence slicing. Prunes witness-discharged
    // cones (shrinking the key and the backend query) and answers Sat
    // when every cone is discharged.
    if (options_.slice) {
        SliceResult sliced = slicer_.slice(working);
        stats_.slicedAssertions += sliced.droppedAssertions;
        if (sliced.decided.has_value()) {
            ++stats_.sliceResolved;
            if (*sliced.decided == SatResult::Sat &&
                sliced.droppedAssertions > 0) {
                // The combined cone witness is a genuine model of the
                // whole query; pool it for neighbors.
                cache_->addModel(std::make_shared<const Assignment>(
                    std::move(sliced.droppedWitness)));
            }
            countVerdict(*sliced.decided);
            return *sliced.decided;
        }
        working = std::move(sliced.kept);
    }

    // Stages 3-4 — verdict store and model reuse on the reduced query.
    std::string key = normalizedKey(working);
    bool unaudited = false;
    std::optional<SatResult> hit = cache_->lookup(key, &unaudited);
    if (hit.has_value() && unaudited && shouldAudit(key)) {
        switch (auditCachedVerdict(working, key, *hit)) {
        case AuditOutcome::Pass:
            cache_->markAudited(key);
            break;
        case AuditOutcome::Inconclusive:
            // Recheck budget ran out; serve the stored verdict and
            // leave the flag set for a later, luckier sample.
            break;
        case AuditOutcome::Mismatch:
            // auditCachedVerdict already quarantined the entry; forget
            // the hit so the query takes the normal miss path below and
            // the served verdict is exactly what a daemonless run
            // computes.
            hit.reset();
            break;
        }
    }
    if (hit.has_value()) {
        ++stats_.cacheHits;
        countVerdict(*hit);
        return *hit;
    }
    if (std::optional<SatResult> reused = tryModelReuse(working, key)) {
        // A pooled model satisfies the query under concrete evaluation:
        // Sat without touching the backend. Store the verdict so exact
        // repeats take the cheaper key path.
        ++stats_.cacheHits;
        ++stats_.sat;
        cache_->noteModelHit();
        stats_.cacheEvictions += cache_->insert(key, *reused);
        return *reused;
    }
    ++stats_.cacheMisses;

    support::Stopwatch watch;
    SolverStats backend_before = backend_.stats();
    SatResult result = backend_.checkSat(working);
    // Fold the backend's per-call attribution (incremental reuse,
    // fallbacks, cold solves, and — when the backend is a guarded or
    // sandboxed stack — its recovery and transport work) into this
    // stack's stats. Stage counters are deliberately NOT folded: this
    // stack counts its own stages and times its own backend calls, and
    // a sandboxed backend's worker-side cache traffic must not break the
    // one-stage-per-query invariant documented on SolverStats.
    const SolverStats backend_delta = backend_.stats() - backend_before;
    forEachCounter(
        [](CounterInfo info, auto &sum, const auto &add) {
            if (info.cls == CounterClass::Backend)
                sum += add;
        },
        stats_, backend_delta);
    stats_.totalSeconds += watch.seconds();
    if (cacheDebug()) {
        std::fprintf(stderr, "MISS %8.2f ms  %s  h=%zx  n=%zu  a=%zu\n",
                     watch.seconds() * 1e3,
                     result == SatResult::Sat
                         ? "sat  "
                         : (result == SatResult::Unsat ? "unsat"
                                                       : "unk  "),
                     std::hash<std::string>{}(key), key.size(),
                     working.size());
    }
    if (result == SatResult::Sat) {
        Assignment model;
        if (backend_.lastModel(&model)) {
            cache_->addModel(
                std::make_shared<const Assignment>(std::move(model)));
        }
    }
    if (result != SatResult::Unknown)
        stats_.cacheEvictions += cache_->insert(key, result);
    countVerdict(result);
    return result;
}

void
CachingSolver::setTimeoutMs(unsigned timeout_ms)
{
    backend_.setTimeoutMs(timeout_ms);
}

void
CachingSolver::setMemoryBudgetMb(unsigned budget_mb)
{
    backend_.setMemoryBudgetMb(budget_mb);
}

void
CachingSolver::interruptQuery()
{
    backend_.interruptQuery();
}

std::string
CachingSolver::lastUnknownReason() const
{
    return backend_.lastUnknownReason();
}

FailureKind
CachingSolver::lastFailureKind() const
{
    return backend_.lastFailureKind();
}

} // namespace keq::smt
