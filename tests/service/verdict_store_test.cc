/** @file Cross-run verdict store, observed the way the daemon uses it:
 *  through the QueryCache it journals and through reopening. Journal
 *  round-trips across restart, preload and fresh-insert persistence,
 *  torn-tail and bit-flip recovery, tombstones, and compaction. */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "src/service/verdict_store.h"
#include "src/smt/caching_solver.h"
#include "src/support/diagnostics.h"

namespace keq::service {
namespace {

struct TempFile
{
    std::string path;

    explicit TempFile(const std::string &stem)
        : path((std::filesystem::temp_directory_path() /
                ("keq-verdict-store-" + stem + "-" +
                 std::to_string(::getpid()) + ".log"))
                   .string())
    {
        std::remove(path.c_str());
    }

    ~TempFile() { std::remove(path.c_str()); }

    std::string
    read() const
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    }

    void
    write(const std::string &bytes) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
};

/** A store and the cache it journals, wired as the daemon wires them. */
struct Journaled
{
    smt::QueryCache cache;
    VerdictStore store;

    explicit Journaled(const std::string &path,
                       size_t cacheBytes = smt::QueryCache::kDefaultMaxBytes)
        : cache(smt::QueryCache::kDefaultMaxEntriesPerShard, cacheBytes),
          store({path})
    {}

    bool open(std::string &error) { return store.open(cache, error); }

    /** The cached verdict of @p key, if any. */
    std::optional<smt::SatResult>
    verdict(const std::string &key)
    {
        return cache.lookup(key);
    }
};

/** Flips one bit of the first occurrence of @p needle in @p file. */
void
flipBitIn(const TempFile &file, const std::string &needle)
{
    std::string bytes = file.read();
    size_t at = bytes.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    bytes[at] ^= 0x01;
    file.write(bytes);
}

TEST(VerdictStoreTest, RecordAndLookupInMemory)
{
    Journaled memo(""); // memory-only
    std::string error;
    ASSERT_TRUE(memo.open(error)) << error;

    memo.cache.insert("query-a", smt::SatResult::Unsat);
    memo.cache.insert("query-b", smt::SatResult::Sat);
    EXPECT_EQ(memo.verdict("query-a"), smt::SatResult::Unsat);
    EXPECT_EQ(memo.verdict("query-b"), smt::SatResult::Sat);
    EXPECT_FALSE(memo.verdict("query-c").has_value());

    // A memory-only store journals nothing and has nothing to compact.
    memo.store.quarantine("query-a");
    EXPECT_EQ(memo.store.compact(), 0u);
    VerdictStore::Stats stats = memo.store.stats();
    EXPECT_EQ(stats.appended, 0u);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.compactions, 0u);
}

TEST(VerdictStoreTest, DuplicateRecordIsNotReappended)
{
    TempFile file("duplicate");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        memo.cache.insert("key", smt::SatResult::Unsat);
        // Touching an existing key is not a fresh insert: no re-append.
        memo.cache.insert("key", smt::SatResult::Unsat);
        EXPECT_EQ(memo.store.stats().appended, 1u);
    }
    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 1u);
    EXPECT_EQ(reopened.store.stats().compactions, 0u)
        << "a journal without dead records needs no rewrite";
}

TEST(VerdictStoreTest, UnknownVerdictIsRejectedByContract)
{
    TempFile file("unknown");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        EXPECT_THROW(memo.cache.insert("key", smt::SatResult::Unknown),
                     support::InternalError);
        EXPECT_EQ(memo.store.stats().appended, 0u);
    }
    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 0u);
    EXPECT_FALSE(reopened.verdict("key").has_value());
}

TEST(VerdictStoreTest, JournalRoundTripAcrossRestart)
{
    TempFile file("restart");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        memo.cache.insert("alpha", smt::SatResult::Unsat);
        memo.cache.insert("beta", smt::SatResult::Sat);
        EXPECT_EQ(memo.store.stats().appended, 2u);
    } // daemon "dies"

    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 2u);
    EXPECT_EQ(reopened.cache.stats().preloaded, 2u);
    bool unaudited = false;
    EXPECT_EQ(reopened.cache.lookup("alpha", &unaudited),
              smt::SatResult::Unsat);
    EXPECT_TRUE(unaudited) << "a journaled verdict is a claim to audit";
    EXPECT_EQ(reopened.verdict("beta"), smt::SatResult::Sat);

    // Verdicts learned before the restart are cached, not re-journaled.
    reopened.cache.insert("alpha", smt::SatResult::Unsat);
    EXPECT_EQ(reopened.store.stats().appended, 0u);
}

TEST(VerdictStoreTest, WrongJournalKindFailsLoudly)
{
    TempFile file("kind");
    {
        support::JournalWriter writer(file.path, "pipeline-checkpoint");
        writer.append("not-a-verdict");
    }
    Journaled memo(file.path);
    std::string error;
    EXPECT_FALSE(memo.open(error));
    EXPECT_NE(error.find("pipeline-checkpoint"), std::string::npos);
}

TEST(VerdictStoreTest, TornTailDropsOnlyTheDamagedSuffix)
{
    TempFile file("torn");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        memo.cache.insert("intact-1", smt::SatResult::Unsat);
        memo.cache.insert("intact-2", smt::SatResult::Sat);
        memo.cache.insert("doomed", smt::SatResult::Unsat);
    }
    // Simulate SIGKILL mid-append: cut the file inside the last record.
    std::string bytes = file.read();
    file.write(bytes.substr(0, bytes.size() - 3));

    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 2u);
    EXPECT_EQ(reopened.store.stats().droppedRecords, 1u);
    EXPECT_TRUE(reopened.verdict("intact-1").has_value());
    EXPECT_TRUE(reopened.verdict("intact-2").has_value());
    EXPECT_FALSE(reopened.verdict("doomed").has_value());

    // The store stays appendable after recovery.
    reopened.cache.insert("fresh", smt::SatResult::Sat);
    Journaled again(file.path);
    ASSERT_TRUE(again.open(error)) << error;
    EXPECT_EQ(again.store.stats().loaded, 3u);
    EXPECT_TRUE(again.verdict("fresh").has_value());
}

/**
 * The generation stamp is parsed strictly: a record whose checksum is
 * intact but whose generation does not fit 64 bits is schema skew,
 * dropped like any unparsable record — never wrapped into a valid
 * generation and preloaded.
 */
TEST(VerdictStoreTest, OutOfRangeGenerationIsDroppedAsSchemaSkew)
{
    TempFile file("generation");
    {
        support::JournalWriter writer(file.path, VerdictStore::kKind);
        writer.append("g3:ukept");
        writer.append("g18446744073709551616:uwrapped"); // 2^64
        writer.append("g:uempty");
        writer.append("g7x:ujunk");
    }
    Journaled memo(file.path);
    std::string error;
    ASSERT_TRUE(memo.open(error)) << error;
    EXPECT_EQ(memo.store.stats().droppedRecords, 3u);
    EXPECT_EQ(memo.store.stats().loaded, 1u);
    EXPECT_EQ(memo.verdict("kept"), smt::SatResult::Unsat);
    EXPECT_FALSE(memo.verdict("wrapped").has_value());
    EXPECT_FALSE(memo.verdict("empty").has_value());
    EXPECT_FALSE(memo.verdict("junk").has_value());
}

TEST(VerdictStoreTest, AttachPreloadsCacheAndPersistsFreshInserts)
{
    TempFile file("attach");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        memo.cache.insert("warm", smt::SatResult::Unsat);
    }
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        // Preload: the journaled verdict is already a cache hit...
        EXPECT_EQ(memo.verdict("warm"), smt::SatResult::Unsat);
        // ...and preloading did not re-journal it.
        EXPECT_EQ(memo.store.stats().appended, 0u);

        // A fresh solver verdict inserted into the cache is captured.
        memo.cache.insert("earned", smt::SatResult::Sat);
        EXPECT_EQ(memo.store.stats().appended, 1u);
    }

    // Both the preloaded and the captured verdict survive restart.
    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 2u);
    EXPECT_EQ(reopened.verdict("warm"), smt::SatResult::Unsat);
    EXPECT_EQ(reopened.verdict("earned"), smt::SatResult::Sat);
}

TEST(VerdictStoreTest, MissingFileIsAFreshStore)
{
    TempFile file("missing");
    Journaled memo(file.path);
    std::string error;
    ASSERT_TRUE(memo.open(error)) << error;
    EXPECT_EQ(memo.store.stats().loaded, 0u);
    EXPECT_EQ(memo.cache.stats().entries, 0u);
    memo.cache.insert("first", smt::SatResult::Unsat);
    EXPECT_EQ(memo.store.stats().appended, 1u);
}

// ---- Month-scale lifecycle: recovery, tombstones, compaction ----

TEST(VerdictStoreLifecycleTest, OversizedSingleEntryStillRecords)
{
    // A key bigger than the cache's whole byte budget still caches (the
    // newest entry is never evicted) and is journaled like any other.
    TempFile file("oversized");
    std::string key(64 * 1024, 'k');
    {
        Journaled memo(file.path, /*cacheBytes=*/1024);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        memo.cache.insert(key, smt::SatResult::Unsat);
        EXPECT_EQ(memo.verdict(key), smt::SatResult::Unsat);
        EXPECT_EQ(memo.store.stats().appended, 1u);
    }
    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.verdict(key), smt::SatResult::Unsat);
}

TEST(VerdictStoreLifecycleTest, BitFlippedRecordIsSkippedAlone)
{
    TempFile file("bitflip");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        memo.cache.insert("before", smt::SatResult::Unsat);
        memo.cache.insert("victim", smt::SatResult::Sat);
        memo.cache.insert("after", smt::SatResult::Unsat);
    }
    // Flip one bit inside the *middle* record's line. Unlike a torn
    // tail, records after the damage must still load: the scan skips
    // the checksum-failing line alone.
    flipBitIn(file, "victim");

    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 2u);
    EXPECT_GE(reopened.store.stats().droppedRecords, 1u);
    EXPECT_TRUE(reopened.verdict("before").has_value());
    EXPECT_FALSE(reopened.verdict("victim").has_value());
    EXPECT_TRUE(reopened.verdict("after").has_value())
        << "a mid-file bit flip must not shadow later records";

    // Recovery compacted the rot away: the next restart loads clean.
    Journaled again(file.path);
    ASSERT_TRUE(again.open(error)) << error;
    EXPECT_EQ(again.store.stats().loaded, 2u);
    EXPECT_EQ(again.store.stats().droppedRecords, 0u);
    EXPECT_EQ(again.store.stats().compactions, 0u);
}

/**
 * Rot while the daemon runs: a record flips on disk after it was
 * appended. The SIGHUP compaction re-reads the journal, so the flipped
 * record fails its line checksum and is not rewritten; its neighbours
 * are.
 */
TEST(VerdictStoreLifecycleTest, CompactionDropsARecordThatRottedOnDisk)
{
    TempFile file("rot");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        memo.cache.insert("before", smt::SatResult::Unsat);
        memo.cache.insert("victim", smt::SatResult::Sat);
        memo.cache.insert("after", smt::SatResult::Unsat);
        flipBitIn(file, "victim");
        EXPECT_EQ(memo.store.compact(), 2u);
        EXPECT_EQ(memo.store.stats().droppedRecords, 1u);
    }
    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().droppedRecords, 0u);
    EXPECT_EQ(reopened.store.stats().loaded, 2u);
    EXPECT_TRUE(reopened.verdict("before").has_value());
    EXPECT_FALSE(reopened.verdict("victim").has_value());
    EXPECT_FALSE(reopened.verdict("wictim").has_value());
    EXPECT_TRUE(reopened.verdict("after").has_value());
}

TEST(VerdictStoreLifecycleTest, QuarantineTombstoneSurvivesRestart)
{
    TempFile file("quarantine");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        memo.cache.insert("good", smt::SatResult::Unsat);
        memo.cache.insert("bad", smt::SatResult::Sat);
        // What the daemon does on an audit mismatch: the cache evicts,
        // the store tombstones.
        EXPECT_TRUE(memo.cache.quarantine("bad"));
        memo.store.quarantine("bad");
        EXPECT_FALSE(memo.verdict("bad").has_value());
        EXPECT_EQ(memo.store.stats().quarantined, 1u);
    }
    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 1u);
    EXPECT_TRUE(reopened.verdict("good").has_value());
    EXPECT_FALSE(reopened.verdict("bad").has_value())
        << "a quarantined verdict must stay dead across restarts";

    // A fresh re-solve after the tombstone resurrects the key — replay
    // order is record, tombstone, record.
    reopened.cache.insert("bad", smt::SatResult::Unsat);
    Journaled again(file.path);
    ASSERT_TRUE(again.open(error)) << error;
    EXPECT_EQ(again.verdict("bad"), smt::SatResult::Unsat);
}

TEST(VerdictStoreLifecycleTest, CompactionReclaimsGarbageAndShrinks)
{
    TempFile file("compact");
    Journaled memo(file.path);
    std::string error;
    ASSERT_TRUE(memo.open(error)) << error;

    for (int i = 0; i < 32; ++i)
        memo.cache.insert("key-" + std::to_string(i),
                          smt::SatResult::Unsat);
    for (int i = 0; i < 24; ++i)
        memo.store.quarantine("key-" + std::to_string(i));
    memo.store.sync();
    size_t before = file.read().size();
    uint64_t generation = memo.store.stats().generation;

    EXPECT_EQ(memo.store.compact(), 8u);
    memo.store.sync();
    EXPECT_LT(file.read().size(), before)
        << "compaction must reclaim dead records and tombstones";
    EXPECT_EQ(memo.store.stats().compactions, 1u);
    EXPECT_GT(memo.store.stats().generation, generation);

    Journaled reopened(file.path);
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 8u);
    EXPECT_EQ(reopened.store.stats().compactions, 0u);
    for (int i = 24; i < 32; ++i)
        EXPECT_TRUE(
            reopened.verdict("key-" + std::to_string(i)).has_value());
}

/**
 * Dead records found at open — a superseded duplicate (the cache
 * evicted a verdict and the query was solved again), a tombstone and
 * the record it killed — are compacted away before the store goes
 * live, keeping the last live record per key.
 */
TEST(VerdictStoreLifecycleTest, OpenCompactsDeadRecords)
{
    TempFile file("opencompact");
    {
        support::JournalWriter writer(file.path, VerdictStore::kKind);
        writer.append("g1:uduplicated");
        writer.append("g1:skilled");
        writer.append("g1:ukept");
        writer.append("g1:uduplicated");
        writer.append("qkilled");
    }
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        EXPECT_EQ(memo.store.stats().loaded, 2u);
        EXPECT_EQ(memo.store.stats().compactions, 1u);
        EXPECT_EQ(memo.store.stats().droppedRecords, 0u);
        EXPECT_FALSE(memo.verdict("killed").has_value());
    }
    support::JournalLoad load =
        support::loadJournal(file.path, VerdictStore::kKind);
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.records,
              (std::vector<std::string>{"g2:ukept", "g2:uduplicated"}))
        << "the rewrite keeps each key's last live record, in file order";

    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, 2u);
    EXPECT_EQ(reopened.store.stats().compactions, 0u);
}

/**
 * The cache's LRU budget decides what stays in memory, not what stays
 * journaled: a verdict the cache evicted survives compaction and a
 * restart, and the journal is what brings it back.
 */
TEST(VerdictStoreLifecycleTest, CacheEvictedVerdictsStayJournaled)
{
    TempFile file("evicted");
    constexpr int kKeys = 64;
    {
        // A budget of a few entries per shard: most inserts evict.
        Journaled memo(file.path, /*cacheBytes=*/16 * 256);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        for (int i = 0; i < kKeys; ++i)
            memo.cache.insert("key-" + std::to_string(i),
                              smt::SatResult::Sat);
        EXPECT_GT(memo.cache.stats().evictions, 0u);
        EXPECT_EQ(memo.store.compact(), static_cast<size_t>(kKeys));
    }
    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded, static_cast<uint64_t>(kKeys));
    for (int i = 0; i < kKeys; ++i)
        EXPECT_TRUE(
            reopened.verdict("key-" + std::to_string(i)).has_value())
            << i;
}

TEST(VerdictStoreLifecycleTest, CompactedJournalRoundTripsByteIdentical)
{
    TempFile file("identical");
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        for (int i = 0; i < 10; ++i)
            memo.cache.insert("key-" + std::to_string(i),
                              i % 2 == 0 ? smt::SatResult::Unsat
                                         : smt::SatResult::Sat);
        memo.store.quarantine("key-3");
        memo.store.compact();
        memo.store.sync();
    }
    std::string first = file.read();

    // Reload the compacted journal and compact again: record set,
    // order and generation handling must be stable enough that the
    // bytes do not drift across restart cycles.
    std::string second;
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;
        EXPECT_EQ(memo.store.stats().loaded, 9u);
        memo.store.compact();
        memo.store.sync();
        second = file.read();
    }
    EXPECT_EQ(first.size(), second.size());
    // The generation stamp advances on every compaction by design (and
    // each line's checksum covers it), so byte-identity is asserted
    // with the 16-hex line checksum and the generation digits masked:
    // same records, same order, same keys, same verdicts.
    auto masked = [](const std::string &bytes) {
        std::istringstream in(bytes);
        std::ostringstream out;
        std::string line;
        bool header = true;
        while (std::getline(in, line)) {
            if (!header && line.size() > 17) {
                for (size_t i = 0; i < 16; ++i)
                    line[i] = '#';
                size_t digit = 18; // past "<hex> g"
                while (digit < line.size() &&
                       std::isdigit(
                           static_cast<unsigned char>(line[digit])))
                    line[digit++] = '#';
            }
            header = false;
            out << line << '\n';
        }
        return out.str();
    };
    EXPECT_EQ(masked(first), masked(second));
}

TEST(VerdictStoreLifecycleTest, CompactionConcurrentWithAppends)
{
    TempFile file("concurrent");
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 64;
    {
        Journaled memo(file.path);
        std::string error;
        ASSERT_TRUE(memo.open(error)) << error;

        std::vector<std::thread> writers;
        for (int w = 0; w < kWriters; ++w) {
            writers.emplace_back([&memo, w] {
                for (int i = 0; i < kPerWriter; ++i) {
                    memo.cache.insert("writer-" + std::to_string(w) +
                                          "-" + std::to_string(i),
                                      smt::SatResult::Unsat);
                }
            });
        }
        // Compact repeatedly while the writers hammer the cache.
        for (int i = 0; i < 8; ++i)
            memo.store.compact();
        for (std::thread &writer : writers)
            writer.join();
        EXPECT_EQ(memo.store.compact(),
                  static_cast<size_t>(kWriters * kPerWriter));
        memo.store.sync();
        EXPECT_EQ(memo.store.stats().appended,
                  static_cast<uint64_t>(kWriters * kPerWriter));
        EXPECT_EQ(memo.store.stats().droppedRecords, 0u);
    }

    // Every record appended around the compactions survives restart.
    Journaled reopened(file.path);
    std::string error;
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.store.stats().loaded,
              static_cast<uint64_t>(kWriters * kPerWriter));
    EXPECT_EQ(reopened.store.stats().droppedRecords, 0u);
    for (int w = 0; w < kWriters; ++w) {
        for (int i = 0; i < kPerWriter; ++i) {
            EXPECT_TRUE(reopened
                            .verdict("writer-" + std::to_string(w) +
                                     "-" + std::to_string(i))
                            .has_value())
                << "writer " << w << " record " << i;
        }
    }
}

} // namespace
} // namespace keq::service
