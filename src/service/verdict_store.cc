#include "src/service/verdict_store.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <unordered_map>

#include "src/support/diagnostics.h"
#include "src/support/strings.h"

namespace keq::service {

using smt::SatResult;

namespace {

/**
 * Journal record layouts (escaping and line checksums are the journal
 * layer's job; keys are opaque bytes here):
 *
 *   's' <key> / 'u' <key>          -- legacy verdict (generation 0)
 *   'g' <gen> ':' 's'|'u' <key>    -- generation-stamped verdict
 *   'q' <key>                      -- quarantine tombstone
 *
 * Replay is strictly in file order: a later verdict record of a key
 * supersedes an earlier one, and a tombstone kills the record before
 * it; a verdict record after the tombstone resurrects the key (the
 * audit's fresh solve re-records it).
 */
std::string
recordPayload(const std::string &key, SatResult verdict,
              uint64_t generation)
{
    std::string payload;
    payload.reserve(key.size() + 24);
    payload.push_back('g');
    payload.append(std::to_string(generation));
    payload.push_back(':');
    payload.push_back(verdict == SatResult::Sat ? 's' : 'u');
    payload.append(key);
    return payload;
}

std::string
tombstonePayload(const std::string &key)
{
    std::string payload;
    payload.reserve(key.size() + 1);
    payload.push_back('q');
    payload.append(key);
    return payload;
}

struct ParsedRecord
{
    bool tombstone = false;
    std::string_view key; ///< view into the record's payload
    SatResult verdict = SatResult::Unknown;
    uint64_t generation = 0;
};

bool
parseRecord(std::string_view payload, ParsedRecord &out)
{
    if (payload.empty())
        return false;
    if (payload[0] == 'q') {
        out.tombstone = true;
        out.key = payload.substr(1);
        return true;
    }
    if (payload[0] == 'g') {
        size_t colon = payload.find(':');
        if (colon == std::string_view::npos ||
            !support::parseU64(payload.substr(1, colon - 1),
                               out.generation))
            return false;
        payload.remove_prefix(colon + 1);
        if (payload.empty())
            return false;
    }
    if (payload[0] == 's')
        out.verdict = SatResult::Sat;
    else if (payload[0] == 'u')
        out.verdict = SatResult::Unsat;
    else
        return false;
    out.key = payload.substr(1);
    return true;
}

} // namespace

VerdictStore::VerdictStore(Options options) : options_(std::move(options))
{}

bool
VerdictStore::open(smt::QueryCache &cache, std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.path.empty())
        return true; // memory-only: the cache is the whole story

    support::JournalLoad load =
        support::loadJournal(options_.path, kKind,
                             support::JournalScan::SkipCorruptRecords);
    if (!load.ok) {
        error = load.error;
        return false;
    }
    stats_.droppedRecords = load.truncatedRecords;
    uint64_t deadRecords = 0;
    Verdicts live = replayLocked(std::move(load.records), deadRecords);
    // Preload: every verdict the journal remembers becomes a warm cache
    // entry before the first client connects — flagged *unaudited*, so
    // the trust-but-verify sampler rechecks it before it is blindly
    // trusted. Preloaded inserts never fire the listener, so nothing
    // is journaled twice.
    for (const auto &[key, verdict] : live)
        cache.insertPreloaded(key, verdict);
    stats_.loaded = live.size();

    if (stats_.droppedRecords + deadRecords > 0) {
        // Corrupt bytes must not stay in an append-only file — and a
        // torn tail would make post-recovery appends unreachable on the
        // next open. Rewrite from the survivors so the journal is clean
        // and appendable again.
        rewriteLocked(live);
    } else {
        writer_ = std::make_unique<support::JournalWriter>(
            options_.path, kKind, options_.fsync);
    }
    cache.setInsertListener(
        [this](const std::string &key, SatResult verdict) {
            append(key, verdict);
        });
    return true;
}

VerdictStore::Verdicts
VerdictStore::replayLocked(std::vector<std::string> records,
                           uint64_t &deadRecords)
{
    std::vector<ParsedRecord> parsed(records.size());
    std::vector<bool> live(records.size(), false);
    std::unordered_map<std::string_view, size_t> latest;
    for (size_t i = 0; i < records.size(); ++i) {
        ParsedRecord &record = parsed[i];
        if (!parseRecord(records[i], record)) {
            // An intact-checksum record with a bad shape means schema
            // skew, not corruption; count and skip rather than abort.
            ++stats_.droppedRecords;
            continue;
        }
        generation_ = std::max(generation_, record.generation);
        auto [it, fresh] = latest.try_emplace(record.key, i);
        if (!fresh) {
            // Superseded (or killed, below) by this later record.
            live[it->second] = false;
            ++deadRecords;
            it->second = i;
        }
        if (record.tombstone) {
            ++deadRecords;
            latest.erase(it);
            continue;
        }
        live[i] = true;
    }
    Verdicts verdicts;
    verdicts.reserve(latest.size());
    for (size_t i = 0; i < records.size(); ++i) {
        if (live[i])
            verdicts.emplace_back(std::string(parsed[i].key),
                                  parsed[i].verdict);
    }
    return verdicts;
}

void
VerdictStore::rewriteLocked(const Verdicts &live)
{
    // A new generation: every live record is re-stamped and rewritten
    // in file order, then the rewrite atomically replaces the journal.
    // Crash at any instant leaves either the old file or the new one —
    // never a mix.
    ++generation_;
    writer_.reset();
    std::string temp = options_.path + ".compact";
    std::remove(temp.c_str());
    if (live.empty()) {
        std::remove(options_.path.c_str());
    } else {
        {
            support::JournalWriter rewrite(temp, kKind,
                                           support::FsyncPolicy::Off);
            for (const auto &[key, verdict] : live)
                rewrite.append(recordPayload(key, verdict, generation_));
            rewrite.sync(); // one fsync for the whole rewrite
        }
        if (std::rename(temp.c_str(), options_.path.c_str()) != 0)
            support::fatal("verdict-store compaction: cannot rename " +
                           temp + " over " + options_.path);
    }
    writer_ = std::make_unique<support::JournalWriter>(
        options_.path, kKind, options_.fsync);
    ++stats_.compactions;
}

void
VerdictStore::append(const std::string &key, SatResult verdict)
{
    KEQ_ASSERT(verdict != SatResult::Unknown,
               "VerdictStore: Unknown verdicts must not be stored");
    std::lock_guard<std::mutex> lock(mutex_);
    writer_->append(recordPayload(key, verdict, generation_));
    ++stats_.appended;
}

void
VerdictStore::quarantine(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_ == nullptr)
        return; // memory-only: the cache eviction is all there is
    writer_->append(tombstonePayload(key));
    ++stats_.quarantined;
}

size_t
VerdictStore::compact()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_ == nullptr)
        return 0; // memory-only: no journal
    // The writer flushes every append, so closing it leaves the whole
    // journal in the file; appends wait behind the mutex until the
    // rewrite reopens it. Re-reading means every record kept has just
    // passed its line checksum.
    writer_.reset();
    support::JournalLoad load =
        support::loadJournal(options_.path, kKind,
                             support::JournalScan::SkipCorruptRecords);
    if (!load.ok)
        support::fatal("verdict-store compaction: " + load.error);
    stats_.droppedRecords += load.truncatedRecords;
    uint64_t deadRecords = 0;
    Verdicts live = replayLocked(std::move(load.records), deadRecords);
    rewriteLocked(live);
    return live.size();
}

void
VerdictStore::sync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_ != nullptr)
        writer_->sync();
}

VerdictStore::Stats
VerdictStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats snapshot = stats_;
    snapshot.generation = generation_;
    return snapshot;
}

} // namespace keq::service
