/** @file Wire protocol: term round-trips are byte-identical across
 *  fresh factories (the sandbox's cache-fingerprint contract), every
 *  typed frame survives encode/decode, and corrupted or hostile bytes
 *  decode-fail instead of reaching a TermFactory precondition. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/smt/caching_solver.h"
#include "src/smt/term_factory.h"
#include "src/smt/wire.h"
#include "src/support/rng.h"

namespace keq::smt::wire {
namespace {

std::string
encodedBytes(const std::vector<Term> &terms)
{
    Encoder enc;
    encodeTerms(enc, terms);
    return enc.take();
}

/** encode -> decode into a fresh factory -> re-encode; asserts success. */
std::vector<Term>
roundTrip(const std::vector<Term> &terms, TermFactory &into)
{
    std::string bytes = encodedBytes(terms); // Decoder borrows the buffer
    Decoder dec(bytes);
    std::vector<Term> out;
    EXPECT_TRUE(decodeTerms(dec, into, nullptr, out)) << dec.error();
    EXPECT_TRUE(dec.atEnd());
    return out;
}

/** A structurally rich assertion set over shared subterms. */
std::vector<Term>
exampleAssertions(TermFactory &f)
{
    Term x = f.var("x", Sort::bitVec(32));
    Term y = f.var("y", Sort::bitVec(32));
    Term p = f.var("p", Sort::boolSort());
    Term mem = f.var("mem", Sort::memArray());
    Term addr = f.var("addr", Sort::bitVec(64));

    Term sum = f.bvAdd(x, f.bvMul(y, f.bvConst(32, 3)));
    Term wide = f.concat(f.extract(sum, 31, 16), f.extract(sum, 15, 0));
    Term loaded = f.select(f.store(mem, addr, f.extract(x, 7, 0)), addr);
    return {
        f.mkImplies(p, f.bvUlt(sum, f.bvConst(32, 1u << 20))),
        f.mkEq(wide, sum),
        f.mkEq(f.zext(loaded, 32), f.bvAnd(x, f.bvConst(32, 0xff))),
        f.mkIte(p, f.mkEq(x, y), f.bvSlt(x, f.bvConst(32, 0))),
    };
}

TEST(WireTermCodec, RoundTripIsByteIdenticalAcrossFreshFactories)
{
    TermFactory source;
    std::vector<Term> terms = exampleAssertions(source);
    std::string bytes = encodedBytes(terms);

    TermFactory replay;
    std::vector<Term> rebuilt = roundTrip(terms, replay);
    ASSERT_EQ(rebuilt.size(), terms.size());

    // The codec's core guarantee: re-encoding the rebuilt DAG from the
    // fresh factory reproduces the original bytes exactly, so
    // structural fingerprints agree across the process boundary.
    EXPECT_EQ(encodedBytes(rebuilt), bytes);
}

TEST(WireTermCodec, CacheFingerprintsAgreeAcrossTheBoundary)
{
    TermFactory source;
    std::vector<Term> terms = exampleAssertions(source);
    TermFactory replay;
    std::vector<Term> rebuilt = roundTrip(terms, replay);

    // The parent-side CachingSolver and the worker-side one key their
    // caches with the same normalized fingerprint.
    EXPECT_EQ(CachingSolver::normalizedKey(terms),
              CachingSolver::normalizedKey(rebuilt));
}

TEST(WireTermCodec, SharedSubtermsStaySharedAfterReplay)
{
    TermFactory source;
    Term x = source.var("x", Sort::bitVec(16));
    Term shared = source.bvAdd(x, source.bvConst(16, 1));
    std::vector<Term> terms = {
        source.bvUlt(shared, source.bvConst(16, 100)),
        source.mkEq(shared, source.bvConst(16, 7)),
    };

    TermFactory replay;
    size_t before = replay.nodeCount();
    std::vector<Term> rebuilt = roundTrip(terms, replay);
    // Hash-consing must merge the shared `x + 1` node: the replayed
    // factory grows by exactly the source DAG's reachable node count.
    EXPECT_EQ(replay.nodeCount() - before, 7u)
        << "x, 1, x+1, 100, x+1<100, 7, x+1==7 -- x+1 built once";
    EXPECT_EQ(encodedBytes(rebuilt), encodedBytes(terms));
}

TEST(WireTermCodec, DuplicateRootsAreLegal)
{
    TermFactory source;
    Term t = source.mkEq(source.var("a", Sort::bitVec(8)),
                         source.bvConst(8, 1));
    TermFactory replay;
    std::vector<Term> rebuilt = roundTrip({t, t, t}, replay);
    ASSERT_EQ(rebuilt.size(), 3u);
    EXPECT_EQ(rebuilt[0].id(), rebuilt[1].id());
    EXPECT_EQ(rebuilt[1].id(), rebuilt[2].id());
}

TEST(WireTermCodec, RandomizedRoundTrips)
{
    support::Rng rng(0x313373);
    for (int iteration = 0; iteration < 50; ++iteration) {
        TermFactory f;
        std::vector<Term> pool;
        pool.push_back(f.var("a", Sort::bitVec(32)));
        pool.push_back(f.var("b", Sort::bitVec(32)));
        pool.push_back(f.bvConst(32, rng.next()));
        for (int step = 0; step < 30; ++step) {
            Term x = pool[rng.below(pool.size())];
            Term y = pool[rng.below(pool.size())];
            switch (rng.below(5)) {
              case 0: pool.push_back(f.bvAdd(x, y)); break;
              case 1: pool.push_back(f.bvXor(x, y)); break;
              case 2: pool.push_back(f.bvMul(x, y)); break;
              case 3:
                pool.push_back(
                    f.mkIte(f.bvUlt(x, y), x, y));
                break;
              default:
                pool.push_back(f.bvNot(x));
                break;
            }
        }
        std::vector<Term> roots = {
            f.mkEq(pool.back(), pool[pool.size() - 2]),
            f.bvUle(pool[pool.size() - 3], pool.back()),
        };
        TermFactory replay;
        std::vector<Term> rebuilt = roundTrip(roots, replay);
        ASSERT_EQ(encodedBytes(rebuilt), encodedBytes(roots))
            << "iteration " << iteration;
    }
}

TEST(WireTermCodec, TruncatedBytesFailCleanly)
{
    TermFactory source;
    std::string bytes = encodedBytes(exampleAssertions(source));
    // Every proper prefix must decode-fail without aborting.
    for (size_t cut = 0; cut < bytes.size(); cut += 3) {
        std::string torn = bytes.substr(0, cut);
        Decoder dec(torn);
        TermFactory replay;
        std::vector<Term> out;
        EXPECT_FALSE(decodeTerms(dec, replay, nullptr, out))
            << "prefix of " << cut << " bytes decoded";
    }
}

TEST(WireTermCodec, BitFlippedBytesNeverReachAFactoryAssert)
{
    TermFactory source;
    std::string bytes = encodedBytes(exampleAssertions(source));
    // Flip every byte through a handful of masks. Decode may succeed
    // (some flips produce a different-but-valid DAG) but must never
    // abort; when it fails it must report a reason.
    for (size_t at = 0; at < bytes.size(); ++at) {
        for (uint8_t mask : {0x01, 0x80, 0xff}) {
            std::string mutated = bytes;
            mutated[at] = static_cast<char>(mutated[at] ^ mask);
            Decoder dec(mutated);
            TermFactory replay;
            std::vector<Term> out;
            if (!decodeTerms(dec, replay, nullptr, out)) {
                EXPECT_FALSE(dec.error().empty());
            }
        }
    }
}

TEST(WireTermCodec, VarSortContextRejectsCrossQueryCollisions)
{
    TermFactory source;
    Term as_bv = source.var("v", Sort::bitVec(32));
    std::string first = encodedBytes(
        {source.mkEq(as_bv, source.bvConst(32, 1))});

    TermFactory other;
    Term as_bool = other.var("v", Sort::boolSort());
    std::string second = encodedBytes({other.mkNot(as_bool)});

    // One worker session: same factory, same persistent context.
    TermFactory session;
    VarSortContext vars;
    {
        Decoder dec(first);
        std::vector<Term> out;
        ASSERT_TRUE(decodeTerms(dec, session, &vars, out))
            << dec.error();
    }
    {
        Decoder dec(second);
        std::vector<Term> out;
        EXPECT_FALSE(decodeTerms(dec, session, &vars, out))
            << "redeclaring v at a different sort must fail";
        EXPECT_FALSE(dec.error().empty());
    }
}

/** Stamps the i-th row of the counter table with i + 1. */
SolverStats
numberedStats()
{
    SolverStats stats;
    uint64_t next = 1;
    forEachCounter([&](CounterInfo, auto &field) { field = next++; },
                   stats);
    return stats;
}

TEST(WireStatsCodec, AllFieldsRoundTrip)
{
    // Every counter holds a distinct value, so a field ordering bug
    // cannot cancel out.
    SolverStats stats = numberedStats();
    Encoder enc;
    encodeStats(enc, stats);
    std::string bytes = enc.take();
    Decoder dec(bytes);
    SolverStats back;
    ASSERT_TRUE(decodeStats(dec, back)) << dec.error();
    EXPECT_TRUE(dec.atEnd());

    forEachCounter(
        [](CounterInfo info, const auto &sent, const auto &received) {
            EXPECT_EQ(sent, received) << info.key;
        },
        stats, back);
}

/** Lower-case hex of @p bytes. */
std::string
hexOf(const std::string &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (unsigned char byte : bytes) {
        hex += kDigits[byte >> 4];
        hex += kDigits[byte & 0xf];
    }
    return hex;
}

TEST(WireStatsCodec, V6LayoutGoldenBytes)
{
    // The bytes protocol v6 produces for these values: the field
    // count, the 26 uint64_t counters little-endian, then totalSeconds
    // as IEEE bits.
    static const std::string kGolden =
        "1a" // varuint field count: 26
        "0100000000000000" "0200000000000000" "0300000000000000"
        "0400000000000000" "0500000000000000" "0600000000000000"
        "0700000000000000" "0800000000000000" "0900000000000000"
        "0a00000000000000" "0b00000000000000" "0c00000000000000"
        "0d00000000000000" "0e00000000000000" "0f00000000000000"
        "1000000000000000" "1100000000000000" "1200000000000000"
        "1300000000000000" "1400000000000000" "1500000000000000"
        "1600000000000000" "1700000000000000" "1800000000000000"
        "1900000000000000" "1a00000000000000"
        "0000000000003b40"; // totalSeconds = 27.0
    SolverStats stats = numberedStats();
    Encoder enc;
    encodeStats(enc, stats);
    EXPECT_EQ(hexOf(enc.take()), kGolden);

    // The golden bytes alone cannot see two table rows trade places;
    // these rows pin the table order to the v6 field order.
    EXPECT_EQ(stats.queries, 1u);
    EXPECT_EQ(stats.unknown, 4u);
    EXPECT_EQ(stats.cacheHits, 5u);
    EXPECT_EQ(stats.slicedAssertions, 11u);
    EXPECT_EQ(stats.coldSolves, 15u);
    EXPECT_EQ(stats.faultsInjected, 21u);
    EXPECT_EQ(stats.wireBytesReceived, 26u);
    EXPECT_EQ(stats.totalSeconds, 27.0);
}

TEST(WireFrames, SubmitJobV7LayoutGoldenBytes)
{
    // The v7 SubmitJob body: job id, function, module text, the six
    // JobOptions flag bytes, the query timeout, the wall budget and
    // the spec budget, and nothing after it.
    SubmitJobFrame job;
    job.jobId = 1;
    job.function = "@f";
    job.moduleText = "m";
    job.options.mergeStores = 1;
    job.options.bug = 2;
    job.options.refinementOnly = 1;
    job.options.wallBudgetSeconds = 0.5;
    job.options.specSizeBudget = 7;
    FrameType type;
    std::string body;
    ASSERT_TRUE(splitFrame(encodeSubmitJob(job).substr(4), type, body));
    EXPECT_EQ(type, FrameType::SubmitJob);
    EXPECT_EQ(hexOf(body), "0100000000000000"  // job id
                           "024066" "016d"     // "@f", "m"
                           "010002010100"      // flags
                           "30750000"          // smtTimeoutMs = 30000
                           "000000000000e03f"  // wallBudgetSeconds
                           "0700000000000000"); // specSizeBudget
}

TEST(WireFrames, JobStatusV7LayoutGoldenBytes)
{
    // The v7 JobStatus body: eleven u64 counters, then the draining
    // byte, and nothing after it.
    JobStatusFrame status;
    status.queuedJobs = 1;
    status.runningJobs = 2;
    status.completedJobs = 3;
    status.storeEntries = 4;
    status.activeClients = 5;
    status.busyRejects = 6;
    status.storeBytes = 7;
    status.storeEvictions = 8;
    status.storeQuarantined = 9;
    status.auditMismatches = 10;
    status.quotaRejects = 11;
    status.draining = 1;
    FrameType type;
    std::string body;
    ASSERT_TRUE(
        splitFrame(encodeJobStatus(status).substr(4), type, body));
    EXPECT_EQ(type, FrameType::JobStatus);
    EXPECT_EQ(hexOf(body), "0100000000000000"  // queuedJobs
                           "0200000000000000"  // runningJobs
                           "0300000000000000"  // completedJobs
                           "0400000000000000"  // storeEntries
                           "0500000000000000"  // activeClients
                           "0600000000000000"  // busyRejects
                           "0700000000000000"  // storeBytes
                           "0800000000000000"  // storeEvictions
                           "0900000000000000"  // storeQuarantined
                           "0a00000000000000"  // auditMismatches
                           "0b00000000000000"  // quotaRejects
                           "01");              // draining
}

TEST(WireFrames, TypedFramesRoundTrip)
{
    std::string error;

    ReadyFrame ready{kProtocolVersion, 4242};
    std::string payload = encodeReady(ready);
    FrameType type;
    std::string body;
    // encode* returns the full length-prefixed frame; strip the u32
    // prefix the way the transport does before splitting.
    ASSERT_GT(payload.size(), 4u);
    ASSERT_TRUE(splitFrame(payload.substr(4), type, body));
    EXPECT_EQ(type, FrameType::Ready);
    ReadyFrame ready_back;
    ASSERT_TRUE(decodeReady(body, ready_back, error)) << error;
    EXPECT_EQ(ready_back.protocolVersion, kProtocolVersion);
    EXPECT_EQ(ready_back.pid, 4242u);

    HeartbeatFrame beat{7, 123456};
    ASSERT_TRUE(splitFrame(encodeHeartbeat(beat).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Heartbeat);
    HeartbeatFrame beat_back;
    ASSERT_TRUE(decodeHeartbeat(body, beat_back, error)) << error;
    EXPECT_EQ(beat_back.querySeq, 7u);
    EXPECT_EQ(beat_back.rssKb, 123456u);

    ResetFrame reset{2500, 256, 3, true, Lane::Cold};
    ASSERT_TRUE(splitFrame(encodeReset(reset).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Reset);
    ResetFrame reset_back;
    ASSERT_TRUE(decodeReset(body, reset_back, error)) << error;
    EXPECT_EQ(reset_back.timeoutMs, 2500u);
    EXPECT_EQ(reset_back.memoryBudgetMb, 256u);
    EXPECT_EQ(reset_back.retries, 3u);
    EXPECT_TRUE(reset_back.captureModels);
    EXPECT_EQ(reset_back.lane, Lane::Cold);

    TermFactory f;
    QueryFrame query;
    query.seq = 99;
    query.timeoutMs = 1000;
    query.assertions = exampleAssertions(f);
    ASSERT_TRUE(splitFrame(encodeQuery(query).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Query);
    TermFactory replay;
    QueryFrame query_back;
    ASSERT_TRUE(decodeQuery(body, replay, nullptr, query_back, error))
        << error;
    EXPECT_EQ(query_back.seq, 99u);
    EXPECT_EQ(query_back.timeoutMs, 1000u);
    ASSERT_EQ(query_back.assertions.size(), query.assertions.size());

    ResultFrame result;
    result.seq = 99;
    result.result = SatResult::Unsat;
    result.failureKind = FailureKind::None;
    result.unknownReason = "";
    result.stats.queries = 1;
    result.stats.unsat = 1;
    ASSERT_TRUE(splitFrame(encodeResult(result).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Result);
    ResultFrame result_back;
    ASSERT_TRUE(decodeResult(body, result_back, error)) << error;
    EXPECT_EQ(result_back.seq, 99u);
    EXPECT_EQ(result_back.result, SatResult::Unsat);
    EXPECT_EQ(result_back.stats.unsat, 1u);

    ASSERT_TRUE(
        splitFrame(encodeError("boom\twith\nbytes").substr(4), type,
                   body));
    EXPECT_EQ(type, FrameType::Error);
    std::string message;
    ASSERT_TRUE(decodeError(body, message));
    EXPECT_EQ(message, "boom\twith\nbytes");

    ASSERT_TRUE(splitFrame(encodeShutdown().substr(4), type, body));
    EXPECT_EQ(type, FrameType::Shutdown);
}

/** Encodes @p frame and returns its body (type byte stripped). */
std::string
resultBody(const ResultFrame &frame)
{
    FrameType type;
    std::string body;
    EXPECT_TRUE(splitFrame(encodeResult(frame).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Result);
    return body;
}

TEST(WireFrames, ResetNamesOneOfTheTwoLanes)
{
    // A Reset names the default lane unless told otherwise, and its
    // lane byte admits the two lanes and nothing past them.
    ResetFrame reset{1000, 0, 1, false};
    EXPECT_EQ(reset.lane, Lane::Default);

    FrameType type;
    std::string body, error;
    ASSERT_TRUE(splitFrame(encodeReset(reset).substr(4), type, body));
    ResetFrame back;
    ASSERT_TRUE(decodeReset(body, back, error)) << error;
    EXPECT_EQ(back.lane, Lane::Default);

    std::string hostile = body;
    hostile.back() = 2; // the lane byte closes the body
    EXPECT_FALSE(decodeReset(hostile, back, error));
    EXPECT_NE(error.find("Lane"), std::string::npos) << error;
}

TEST(WireFrames, LastFailureKindSurvivesTheResultFrame)
{
    // The failure-kind discriminant bound admits the last kind and
    // nothing past it.
    ResultFrame result;
    result.seq = 5;
    result.result = SatResult::Unknown;
    result.failureKind = FailureKind::AuditMismatch;
    result.unknownReason = "audit mismatch";

    std::string body = resultBody(result);
    std::string error;
    ResultFrame back;
    ASSERT_TRUE(decodeResult(body, back, error)) << error;
    EXPECT_EQ(back.failureKind, FailureKind::AuditMismatch);
    EXPECT_EQ(back.unknownReason, result.unknownReason);

    std::string past = body;
    past[9] = static_cast<char>( // after the u64 seq and the SatResult
        static_cast<uint8_t>(FailureKind::AuditMismatch) + 1);
    EXPECT_FALSE(decodeResult(past, back, error));
    EXPECT_NE(error.find("FailureKind"), std::string::npos) << error;
}

TEST(WireFrames, WorkerV7ResetAndResultModelRoundTrip)
{
    EXPECT_EQ(kWorkerProtocolVersion, 7u);
    EXPECT_EQ(kProtocolVersion, 7u);
    EXPECT_EQ(kMinServiceProtocolVersion, kProtocolVersion);

    // Reset: timeout, memory budget, retries, capture flag, lane.
    ResetFrame reset{1500, 64, 4, true, Lane::Cold};
    FrameType type;
    std::string body, error;
    ASSERT_TRUE(splitFrame(encodeReset(reset).substr(4), type, body));
    ResetFrame reset_back;
    ASSERT_TRUE(decodeReset(body, reset_back, error)) << error;
    EXPECT_EQ(reset_back.retries, 4u);
    EXPECT_TRUE(reset_back.captureModels);
    EXPECT_EQ(reset_back.lane, Lane::Cold);

    // The capture byte is a flag: anything but 0 or 1 is corrupt.
    std::string hostile = body;
    hostile[12] = 2; // after timeout, budget and retries (3 x u32)
    ResetFrame rejected;
    EXPECT_FALSE(decodeReset(hostile, rejected, error));
    EXPECT_NE(error.find("non-boolean"), std::string::npos) << error;

    // Result: a Sat answer with its model, widths 1 and 64.
    ResultFrame result;
    result.seq = 11;
    result.result = SatResult::Sat;
    result.model.emplace();
    result.model->setBv("x", support::ApInt(32, 0xdeadbeef));
    result.model->setBv("wide", support::ApInt(64, ~uint64_t{0}));
    result.model->setBv("bit", support::ApInt(1, 1));
    result.model->setBool("flag", true);
    result.model->setBool("off", false);
    std::string model_body = resultBody(result);
    ResultFrame back;
    ASSERT_TRUE(decodeResult(model_body, back, error)) << error;
    ASSERT_TRUE(back.model.has_value());
    EXPECT_EQ(back.model->bvs(), result.model->bvs());
    EXPECT_EQ(back.model->bools(), result.model->bools());
    // Sorted names: equal models encode to equal bytes.
    EXPECT_EQ(resultBody(back), model_body);

    // Without a model the flag byte is 0 and nothing follows.
    ResultFrame bare;
    bare.seq = 12;
    bare.result = SatResult::Unsat;
    ASSERT_TRUE(decodeResult(resultBody(bare), back, error)) << error;
    EXPECT_FALSE(back.model.has_value());
}

TEST(WireFrames, HostileResultModelsAreRejected)
{
    // One-variable models with a known layout: the bitvector entry is
    // str name, u8 width, u64 value; the bool entry is str name, u8.
    ResultFrame result;
    result.seq = 3;
    result.result = SatResult::Sat;
    result.model.emplace();
    result.model->setBv("v", support::ApInt(8, 0x7f));
    std::string body = resultBody(result);
    // Tail: flag, count, name length, name, width, value (8), count.
    const size_t width_at = body.size() - 10;
    ASSERT_EQ(body[width_at], 8);

    std::string error;
    ResultFrame out;
    for (uint8_t width : {uint8_t{0}, uint8_t{65}, uint8_t{255}}) {
        std::string bad = body;
        bad[width_at] = static_cast<char>(width);
        EXPECT_FALSE(decodeResult(bad, out, error)) << int(width);
        EXPECT_NE(error.find("width out of range"), std::string::npos)
            << error;
    }
    std::string too_wide = body;
    too_wide[width_at + 2] = 1; // bit 8 set on an 8-bit value
    EXPECT_FALSE(decodeResult(too_wide, out, error));

    // The model flag and bool values are flags too.
    std::string bad_flag = body;
    bad_flag[body.size() - 14] = 7;
    EXPECT_FALSE(decodeResult(bad_flag, out, error));
    EXPECT_NE(error.find("non-boolean"), std::string::npos) << error;

    ResultFrame boolean;
    boolean.result = SatResult::Sat;
    boolean.model.emplace();
    boolean.model->setBool("b", true);
    std::string bool_body = resultBody(boolean);
    bool_body.back() = 2;
    EXPECT_FALSE(decodeResult(bool_body, out, error));
    EXPECT_NE(error.find("non-boolean"), std::string::npos) << error;

    // Every strict prefix of a model-bearing Result is truncated.
    for (size_t cut = 0; cut < body.size(); ++cut) {
        EXPECT_FALSE(decodeResult(body.substr(0, cut), out, error))
            << "cut at " << cut;
    }
}

TEST(WireFrames, HostileResultDiscriminantsAreRejected)
{
    ResultFrame result;
    result.seq = 1;
    result.result = SatResult::Sat;
    std::string payload = encodeResult(result).substr(4);
    FrameType type;
    std::string body;
    ASSERT_TRUE(splitFrame(payload, type, body));

    // Corrupt the SatResult and FailureKind discriminants (first two
    // bytes after the seq varuint) to out-of-range values.
    std::string error;
    for (size_t at = 0; at < body.size(); ++at) {
        std::string mutated = body;
        mutated[at] = static_cast<char>(0xee);
        ResultFrame out;
        if (!decodeResult(mutated, out, error)) {
            EXPECT_FALSE(error.empty());
        }
    }
}

TEST(WireFrames, SplitFrameRejectsGarbage)
{
    FrameType type;
    std::string body;
    EXPECT_FALSE(splitFrame("", type, body));
    EXPECT_FALSE(splitFrame(std::string(1, '\x00'), type, body));
    EXPECT_FALSE(splitFrame(std::string(1, '\x63'), type, body));
    // The retired Cancel, Ping and Pong type bytes are no frames now.
    EXPECT_FALSE(splitFrame(std::string(1, '\x08'), type, body));
    EXPECT_FALSE(splitFrame(std::string(1, '\x10'), type, body));
    EXPECT_FALSE(splitFrame(std::string(1, '\x11'), type, body));
    // The last live service frame still splits.
    EXPECT_TRUE(splitFrame(std::string(1, '\x0f'), type, body));
    EXPECT_EQ(type, FrameType::Busy);
}

} // namespace
} // namespace keq::smt::wire
