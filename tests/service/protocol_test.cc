/** @file Validation-service wire protocol: every new frame survives
 *  encode/decode, the JobOptions <-> PipelineOptions mapping is an
 *  exact inverse on the carried subset, hostile hello bytes
 *  (truncations, bit flips) decode-fail or reject instead of
 *  negotiating a bogus session, and the v6 frame forms (with a job
 *  fingerprint, with dedup and per-transport status counters) fail to
 *  decode instead of being misread. */

#include <gtest/gtest.h>

#include <string>

#include "src/service/job_options.h"
#include "src/smt/wire.h"
#include "src/support/rng.h"
#include "src/vcgen/vcgen.h"

namespace keq::smt::wire {
namespace {

TEST(ServiceProtocolTest, ClientHelloRoundTrip)
{
    ClientHelloFrame hello;
    hello.clientName = "keqc-test";
    std::string bytes = encodeClientHello(hello);

    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(bytes.substr(4), type, body));
    EXPECT_EQ(type, FrameType::ClientHello);

    ClientHelloFrame out;
    std::string error;
    ASSERT_TRUE(decodeClientHello(body, out, error)) << error;
    EXPECT_EQ(out.magic, kServiceMagic);
    EXPECT_EQ(out.protocolVersion, kProtocolVersion);
    EXPECT_EQ(out.clientName, "keqc-test");
}

TEST(ServiceProtocolTest, ServerHelloAndRejectRoundTrip)
{
    ServerHelloFrame hello;
    hello.pid = 12345;
    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeServerHello(hello).substr(4), type,
                           body));
    EXPECT_EQ(type, FrameType::ServerHello);
    ServerHelloFrame helloOut;
    std::string error;
    ASSERT_TRUE(decodeServerHello(body, helloOut, error)) << error;
    EXPECT_EQ(helloOut.protocolVersion, kProtocolVersion);
    EXPECT_EQ(helloOut.pid, 12345u);

    HelloRejectFrame reject;
    reject.supportedVersion = 3;
    reject.message = "unsupported protocol version 99";
    ASSERT_TRUE(splitFrame(encodeHelloReject(reject).substr(4), type,
                           body));
    EXPECT_EQ(type, FrameType::HelloReject);
    HelloRejectFrame rejectOut;
    ASSERT_TRUE(decodeHelloReject(body, rejectOut, error)) << error;
    EXPECT_EQ(rejectOut.supportedVersion, 3u);
    EXPECT_EQ(rejectOut.message, reject.message);
}

TEST(ServiceProtocolTest, SubmitJobRoundTrip)
{
    SubmitJobFrame job;
    job.jobId = 42;
    job.function = "@max";
    job.moduleText = "define i32 @max(i32 %a) {\nret i32 %a\n}\n";
    job.options.mergeStores = 1;
    job.options.bug = 2;
    job.options.smtTimeoutMs = 12500;
    job.options.wallBudgetSeconds = 1.5;
    job.options.specSizeBudget = 9000;

    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeSubmitJob(job).substr(4), type, body));
    EXPECT_EQ(type, FrameType::SubmitJob);
    SubmitJobFrame out;
    std::string error;
    ASSERT_TRUE(decodeSubmitJob(body, out, error)) << error;
    EXPECT_EQ(out.jobId, 42u);
    EXPECT_EQ(out.function, "@max");
    EXPECT_EQ(out.moduleText, job.moduleText);
    EXPECT_EQ(out.options.mergeStores, 1);
    EXPECT_EQ(out.options.bug, 2);
    EXPECT_EQ(out.options.smtTimeoutMs, 12500u);
    EXPECT_DOUBLE_EQ(out.options.wallBudgetSeconds, 1.5);
    EXPECT_EQ(out.options.specSizeBudget, 9000u);
}

TEST(ServiceProtocolTest, SubmitJobRejectsEmptyFunction)
{
    SubmitJobFrame job;
    job.jobId = 1;
    job.function = "";
    job.moduleText = "x";
    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeSubmitJob(job).substr(4), type, body));
    SubmitJobFrame out;
    std::string error;
    EXPECT_FALSE(decodeSubmitJob(body, out, error));
}

TEST(ServiceProtocolTest, JobStatusRoundTrip)
{
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
    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeJobStatus(status).substr(4), type,
                           body));
    EXPECT_EQ(type, FrameType::JobStatus);
    JobStatusFrame out;
    std::string error;
    ASSERT_TRUE(decodeJobStatus(body, out, error)) << error;
    EXPECT_EQ(out.queuedJobs, 1u);
    EXPECT_EQ(out.runningJobs, 2u);
    EXPECT_EQ(out.completedJobs, 3u);
    EXPECT_EQ(out.storeEntries, 4u);
    EXPECT_EQ(out.activeClients, 5u);
    EXPECT_EQ(out.busyRejects, 6u);
    EXPECT_EQ(out.storeBytes, 7u);
    EXPECT_EQ(out.storeEvictions, 8u);
    EXPECT_EQ(out.storeQuarantined, 9u);
    EXPECT_EQ(out.auditMismatches, 10u);
    EXPECT_EQ(out.quotaRejects, 11u);
    EXPECT_EQ(out.draining, 1);
}

TEST(ServiceProtocolTest, JobVerdictRoundTrip)
{
    JobVerdictFrame verdict;
    verdict.jobId = 7;
    verdict.report = "serialized\treport\tpayload";
    verdict.stats.queries = 11;
    verdict.stats.cacheHits = 5;
    verdict.stats.totalSeconds = 0.25;

    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeJobVerdict(verdict).substr(4), type,
                           body));
    EXPECT_EQ(type, FrameType::JobVerdict);
    JobVerdictFrame out;
    std::string error;
    ASSERT_TRUE(decodeJobVerdict(body, out, error)) << error;
    EXPECT_EQ(out.jobId, 7u);
    EXPECT_EQ(out.report, verdict.report);
    EXPECT_EQ(out.stats.queries, 11u);
    EXPECT_EQ(out.stats.cacheHits, 5u);
    EXPECT_DOUBLE_EQ(out.stats.totalSeconds, 0.25);
}

TEST(ServiceProtocolTest, BusyRoundTrip)
{
    BusyFrame busy;
    busy.jobId = 9;
    busy.inFlightLimit = 32;
    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeBusy(busy).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Busy);
    BusyFrame out;
    std::string error;
    ASSERT_TRUE(decodeBusy(body, out, error)) << error;
    EXPECT_EQ(out.jobId, 9u);
    EXPECT_EQ(out.inFlightLimit, 32u);
}

TEST(ServiceProtocolTest, JobOptionsPipelineMappingIsInverse)
{
    namespace service = keq::service;
    driver::PipelineOptions options;
    options.isel.mergeStores = true;
    options.isel.foldExtLoad = true;
    options.isel.bug = isel::Bug::LoadWidening;
    options.checker.refinementOnly = true;
    options.checker.positiveFormOpt = false;
    options.checker.solverTimeoutMs = 4444;
    options.checker.wallBudgetSeconds = 2.75;
    options.vc.precision = vcgen::LivenessPrecision::BlockLocal;
    options.specSizeBudget = 777;

    JobOptionsFrame frame = service::encodeJobOptions(options);
    driver::PipelineOptions back = service::decodeJobOptions(frame);

    EXPECT_EQ(back.isel.mergeStores, options.isel.mergeStores);
    EXPECT_EQ(back.isel.foldExtLoad, options.isel.foldExtLoad);
    EXPECT_EQ(back.isel.bug, options.isel.bug);
    EXPECT_EQ(back.checker.refinementOnly,
              options.checker.refinementOnly);
    EXPECT_EQ(back.checker.positiveFormOpt,
              options.checker.positiveFormOpt);
    EXPECT_EQ(back.checker.solverTimeoutMs,
              options.checker.solverTimeoutMs);
    EXPECT_DOUBLE_EQ(back.checker.wallBudgetSeconds,
                     options.checker.wallBudgetSeconds);
    EXPECT_EQ(back.vc.precision, options.vc.precision);
    EXPECT_EQ(back.specSizeBudget, options.specSizeBudget);

    // The frame of the rebuilt options is identical, so the daemon's
    // Pipeline-pool key is stable across the client/daemon boundary.
    EXPECT_EQ(service::jobOptionsKey(service::encodeJobOptions(back)),
              service::jobOptionsKey(frame));
}

TEST(ServiceProtocolTest, JobOptionsKeySeparatesConfigs)
{
    namespace service = keq::service;
    driver::PipelineOptions a;
    driver::PipelineOptions b;
    b.isel.mergeStores = true;
    driver::PipelineOptions c;
    c.checker.solverTimeoutMs = 1;
    EXPECT_NE(service::jobOptionsKey(service::encodeJobOptions(a)),
              service::jobOptionsKey(service::encodeJobOptions(b)));
    EXPECT_NE(service::jobOptionsKey(service::encodeJobOptions(a)),
              service::jobOptionsKey(service::encodeJobOptions(c)));
}

/**
 * Property: no strict prefix of a ClientHello body decodes. A
 * truncated handshake (dead client, hostile peer) must be a typed
 * failure, never a partially-initialized session.
 */
TEST(ServiceProtocolTest, TruncatedHelloNeverDecodes)
{
    ClientHelloFrame hello;
    hello.clientName = "truncation-probe";
    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeClientHello(hello).substr(4), type,
                           body));
    for (size_t len = 0; len < body.size(); ++len) {
        ClientHelloFrame out;
        std::string error;
        EXPECT_FALSE(
            decodeClientHello(body.substr(0, len), out, error))
            << "prefix of length " << len << " decoded";
    }
}

/**
 * Property: a single flipped bit in a ClientHello is always *caught* —
 * either the decode fails, or the decoded frame no longer carries the
 * expected magic/version (so the daemon's handshake rejects it), or
 * only the advisory client name changed (harmless by design).
 */
TEST(ServiceProtocolTest, BitFlippedHelloIsRejectedOrHarmless)
{
    ClientHelloFrame hello;
    hello.clientName = "bitflip-probe";
    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeClientHello(hello).substr(4), type,
                           body));

    support::Rng rng(0x5e41ce2026ull);
    for (int trial = 0; trial < 256; ++trial) {
        std::string mutated = body;
        size_t byte = rng.below(mutated.size());
        mutated[byte] = static_cast<char>(
            static_cast<unsigned char>(mutated[byte]) ^
            (1u << rng.below(8)));

        ClientHelloFrame out;
        std::string error;
        if (!decodeClientHello(mutated, out, error))
            continue; // decode layer caught it
        bool handshakeRejects = out.magic != kServiceMagic ||
                                out.protocolVersion != kProtocolVersion;
        bool onlyNameChanged = out.magic == kServiceMagic &&
                               out.protocolVersion ==
                                   kProtocolVersion &&
                               out.clientName != hello.clientName;
        EXPECT_TRUE(handshakeRejects || onlyNameChanged)
            << "flipped byte " << byte
            << " produced an accepted, unchanged hello";
    }
}

// ---- previous protocol forms ----

/** The v6 SubmitJob layout (a trailing u64 fingerprint) is a v7
 *  frame with trailing bytes: it fails to decode instead of reading as
 *  a job whose last field was silently ignored. */
TEST(ServiceProtocolTest, SubmitJobV6FormIsRejected)
{
    SubmitJobFrame job;
    job.jobId = 4;
    job.function = "@g";
    job.moduleText = "define i32 @g() {\nret i32 1\n}\n";
    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeSubmitJob(job).substr(4), type, body));
    SubmitJobFrame out;
    std::string error;
    ASSERT_TRUE(decodeSubmitJob(body, out, error)) << error;
    EXPECT_FALSE(decodeSubmitJob(body + std::string(8, '\x09'), out,
                                 error));
    EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
}

/** The v6 JobStatus layout (dedup and per-transport accept counters
 *  after the draining flag) is a v7 frame with 24 trailing bytes: it
 *  fails to decode. */
TEST(ServiceProtocolTest, JobStatusV6FormIsRejected)
{
    JobStatusFrame status;
    status.completedJobs = 17;
    FrameType type{};
    std::string body;
    ASSERT_TRUE(
        splitFrame(encodeJobStatus(status).substr(4), type, body));
    JobStatusFrame out;
    std::string error;
    ASSERT_TRUE(decodeJobStatus(body, out, error)) << error;
    EXPECT_FALSE(
        decodeJobStatus(body + std::string(24, '\0'), out, error));
    EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
}

/** Version skew must be expressible: a v2 hello decodes fine (the
 *  codec is version-agnostic) and is rejected by *policy*. */
TEST(ServiceProtocolTest, OldVersionHelloDecodesButMismatches)
{
    ClientHelloFrame hello;
    hello.protocolVersion = 2;
    FrameType type{};
    std::string body;
    ASSERT_TRUE(splitFrame(encodeClientHello(hello).substr(4), type,
                           body));
    ClientHelloFrame out;
    std::string error;
    ASSERT_TRUE(decodeClientHello(body, out, error)) << error;
    EXPECT_NE(out.protocolVersion, kProtocolVersion);
}

} // namespace
} // namespace keq::smt::wire
