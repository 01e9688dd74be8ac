/** @file Failover determinism (in-process): a client whose primary
 *  daemon dies mid-run fails over to a warm secondary and the spliced
 *  verdicts are byte-identical to a local run; a fingerprinted
 *  resubmit is served exactly once from the completed-job ledger (no
 *  duplicate quota charge, no duplicate journal append); a client of
 *  an older protocol gets a typed HelloReject; and a silent peer is
 *  detected by heartbeat as a fast *typed* failure, never a stall. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/conformance/corpus.h"
#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/service/client.h"
#include "src/service/job_options.h"
#include "src/service/server.h"
#include "src/smt/wire.h"

namespace keq::service {
namespace {

namespace wire = smt::wire;
using support::IoStatus;

std::string
socketPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("keqf-" + stem + "-" + std::to_string(::getpid()) +
             ".sock"))
        .string();
}

std::string
testModule(size_t functions)
{
    driver::CorpusOptions options;
    options.seed = 0x5e41ce;
    options.functionCount = functions;
    return driver::generateCorpusSource(options);
}

std::vector<std::string>
definedFunctions(const std::string &source)
{
    llvmir::Module module = llvmir::parseModule(source);
    std::vector<std::string> names;
    for (const llvmir::Function &fn : module.functions)
        if (!fn.isDeclaration())
            names.push_back(fn.name);
    return names;
}

std::string
canonicalSummary(const std::vector<driver::FunctionReport> &reports)
{
    driver::ModuleReport module;
    module.functions = reports;
    return module.canonicalSummary();
}

std::string
localSummary(const std::string &source,
             const driver::PipelineOptions &options)
{
    driver::Pipeline pipeline(options);
    llvmir::Module module = llvmir::parseModule(source);
    return pipeline.run(module).canonicalSummary();
}

template <typename Predicate>
bool
eventually(Predicate predicate, unsigned budgetMs = 10000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(budgetMs);
    while (!predicate()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

/**
 * Primary dies mid-run (stop() severs every session), the client
 * fails over to the warm secondary, resubmits the undecided work, and
 * the result is byte-identical to a local run. This is the
 * multi-host degradation contract end to end, without processes.
 */
TEST(FailoverTest, MidRunFailoverToSecondaryIsByteIdentical)
{
    std::string source = testModule(8);
    std::vector<std::string> names = definedFunctions(source);
    driver::PipelineOptions poptions;

    ServerOptions primaryOptions;
    primaryOptions.socketPath = socketPath("prim");
    primaryOptions.jobs = 1; // serialize: a wide mid-run kill window
    Server primary(primaryOptions);
    ServerOptions secondaryOptions;
    secondaryOptions.socketPath = socketPath("sec");
    secondaryOptions.jobs = 2;
    Server secondary(secondaryOptions);
    std::string error;
    ASSERT_TRUE(primary.start(error)) << error;
    ASSERT_TRUE(secondary.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = {unixEndpoint(primaryOptions.socketPath),
                       unixEndpoint(secondaryOptions.socketPath)};
    copts.verdictTimeoutMs = 60000;
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;

    // Kill the primary as soon as it has decided at least one job but
    // (jobs=1, 8 functions) almost surely not all of them.
    std::thread killer([&] {
        eventually([&] { return primary.stats().completed >= 1; });
        primary.stop();
    });

    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    bool complete = client.validateFunctions(source, names, poptions,
                                             reports, decided, error);
    killer.join();

    ASSERT_TRUE(complete) << error;
    for (size_t i = 0; i < decided.size(); ++i)
        EXPECT_TRUE(decided[i]) << "function " << i << " undecided";
    EXPECT_EQ(canonicalSummary(reports),
              localSummary(source, poptions));
    // The run must actually have survived a failover (the kill waits
    // for a completed job, so the primary cannot have finished first
    // with jobs=1 unless the module shrank to one function).
    EXPECT_GE(client.failovers(), 1u);
    secondary.stop();
}

/** Raw-wire handshake helper (the client class hides the frames). */
bool
rawHandshake(WireChannel &channel, wire::ServerHelloFrame &ack)
{
    wire::ClientHelloFrame hello;
    hello.clientName = "raw-test";
    if (!channel.sendFrame(wire::encodeClientHello(hello)))
        return false;
    std::string payload;
    if (channel.recvFrame(payload, 5000) != IoStatus::Ok)
        return false;
    wire::FrameType type{};
    std::string body;
    std::string error;
    return wire::splitFrame(payload, type, body) &&
           type == wire::FrameType::ServerHello &&
           wire::decodeServerHello(body, ack, error);
}

/** Round-trips one SubmitJob and returns its verdict frame. */
bool
rawSubmit(WireChannel &channel, const wire::SubmitJobFrame &job,
          wire::JobVerdictFrame &verdict)
{
    if (!channel.sendFrame(wire::encodeSubmitJob(job)))
        return false;
    std::string payload;
    if (channel.recvFrame(payload, 60000) != IoStatus::Ok)
        return false;
    wire::FrameType type{};
    std::string body;
    std::string error;
    return wire::splitFrame(payload, type, body) &&
           type == wire::FrameType::JobVerdict &&
           wire::decodeJobVerdict(body, verdict, error);
}

/**
 * The idempotency contract, pinned at the wire level: a resubmission
 * claiming the job's fingerprint (what a failover client sends for
 * work that was in flight when its connection died) is answered from
 * the completed-job ledger — same verdict bytes, zero additional
 * solves, zero additional quota charges, zero additional journal
 * appends.
 */
TEST(FailoverTest, FingerprintedResubmitIsServedOnceFromLedger)
{
    std::string source = testModule(3);
    std::vector<std::string> names = definedFunctions(source);
    std::string journal = socketPath("ledger") + ".journal";
    std::remove(journal.c_str());

    ServerOptions options;
    options.socketPath = socketPath("ledger");
    options.verdictJournalPath = journal;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    wire::JobOptionsFrame jobOptions =
        encodeJobOptions(driver::PipelineOptions{});

    // First connection: plain submits (fingerprint 0 on first send —
    // no dedup claim), collect verdicts.
    std::vector<wire::JobVerdictFrame> first(names.size());
    {
        int fd = -1;
        ASSERT_TRUE(connectUnix(options.socketPath, 2000, fd, error))
            << error;
        WireChannel channel(fd);
        wire::ServerHelloFrame ack;
        ASSERT_TRUE(rawHandshake(channel, ack));
        for (size_t i = 0; i < names.size(); ++i) {
            wire::SubmitJobFrame job;
            job.jobId = i + 1;
            job.function = names[i];
            job.moduleText = source;
            job.options = jobOptions;
            ASSERT_TRUE(rawSubmit(channel, job, first[i]));
        }
    }
    ServerStats before = server.stats();
    uint64_t appendedBefore = server.store().stats().appended;
    EXPECT_EQ(before.dedupHits, 0u);

    // Second connection simulates the failover client: identical jobs
    // resubmitted *with* their fingerprints.
    {
        int fd = -1;
        ASSERT_TRUE(connectUnix(options.socketPath, 2000, fd, error))
            << error;
        WireChannel channel(fd);
        wire::ServerHelloFrame ack;
        ASSERT_TRUE(rawHandshake(channel, ack));
        for (size_t i = 0; i < names.size(); ++i) {
            wire::SubmitJobFrame job;
            job.jobId = 100 + i;
            job.function = names[i];
            job.moduleText = source;
            job.options = jobOptions;
            job.fingerprint =
                jobFingerprint(source, names[i], jobOptions);
            wire::JobVerdictFrame verdict;
            ASSERT_TRUE(rawSubmit(channel, job, verdict));
            EXPECT_EQ(verdict.jobId, job.jobId);
            // Byte-identical replay of the recorded verdict.
            EXPECT_EQ(verdict.report, first[i].report)
                << names[i] << " replayed differently";
        }
    }

    ServerStats after = server.stats();
    EXPECT_EQ(after.dedupHits, names.size());
    EXPECT_EQ(after.submitted, before.submitted)
        << "a dedup-served job must never enter the queue";
    EXPECT_EQ(after.completed, before.completed)
        << "a dedup-served job must never re-solve";
    EXPECT_EQ(after.quotaRejects, 0u);
    EXPECT_EQ(server.store().stats().appended, appendedBefore)
        << "a dedup-served job must never re-append to the journal";

    server.stop();
    std::remove(journal.c_str());
}

/** A fingerprint is necessary but never sufficient: a submit whose
 *  fingerprint matches a recorded job but whose identity differs (the
 *  64-bit-collision case, forced here) takes the real solving path. */
TEST(FailoverTest, CollidingFingerprintNeverReplaysForeignVerdict)
{
    std::string source = testModule(2);
    std::vector<std::string> names = definedFunctions(source);
    ASSERT_GE(names.size(), 2u);

    ServerOptions options;
    options.socketPath = socketPath("collide");
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    wire::JobOptionsFrame jobOptions =
        encodeJobOptions(driver::PipelineOptions{});

    int fd = -1;
    ASSERT_TRUE(connectUnix(options.socketPath, 2000, fd, error))
        << error;
    WireChannel channel(fd);
    wire::ServerHelloFrame ack;
    ASSERT_TRUE(rawHandshake(channel, ack));

    // Record names[0] in the ledger.
    wire::SubmitJobFrame jobA;
    jobA.jobId = 1;
    jobA.function = names[0];
    jobA.moduleText = source;
    jobA.options = jobOptions;
    wire::JobVerdictFrame verdictA;
    ASSERT_TRUE(
        rawSubmit(channel, jobA, verdictA));

    // Submit names[1] claiming names[0]'s fingerprint: the full
    // identity check must reject the ledger hit and solve for real.
    wire::SubmitJobFrame jobB;
    jobB.jobId = 2;
    jobB.function = names[1];
    jobB.moduleText = source;
    jobB.options = jobOptions;
    jobB.fingerprint = jobFingerprint(source, names[0], jobOptions);
    wire::JobVerdictFrame verdictB;
    ASSERT_TRUE(
        rawSubmit(channel, jobB, verdictB));
    EXPECT_NE(verdictB.report, verdictA.report)
        << "colliding fingerprint replayed the wrong job's verdict";
    EXPECT_EQ(server.stats().dedupHits, 0u);

    server.stop();
}

/** Helloes with @p version and returns the daemon's HelloReject. */
bool
rawRejectedHello(const std::string &socket, uint32_t version,
                 wire::HelloRejectFrame &reject)
{
    int fd = -1;
    std::string error;
    if (!connectUnix(socket, 2000, fd, error))
        return false;
    WireChannel channel(fd);
    wire::ClientHelloFrame hello;
    hello.protocolVersion = version;
    std::string payload;
    wire::FrameType type{};
    std::string body;
    return channel.sendFrame(wire::encodeClientHello(hello)) &&
           channel.recvFrame(payload, 5000) == IoStatus::Ok &&
           wire::splitFrame(payload, type, body) &&
           type == wire::FrameType::HelloReject &&
           wire::decodeHelloReject(body, reject, error);
}

/** A v5 client, whose stats and job-option layouts v6 dropped fields
 *  from, gets a typed HelloReject naming its version and the daemon's
 *  instead of frames it would misread. */
TEST(FailoverTest, V5ClientGetsATypedHelloReject)
{
    ServerOptions options;
    options.socketPath = socketPath("v5");
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    wire::HelloRejectFrame reject;
    ASSERT_TRUE(rawRejectedHello(options.socketPath, 5, reject));
    EXPECT_EQ(reject.supportedVersion, 6u);
    EXPECT_NE(reject.message.find("version 5"), std::string::npos)
        << reject.message;
    EXPECT_NE(reject.message.find("speaks 6"), std::string::npos)
        << reject.message;
    server.stop();
}

/** Too-old and too-new versions still get typed HelloRejects naming
 *  the supported version. */
TEST(FailoverTest, OutOfWindowVersionsAreRejected)
{
    ServerOptions options;
    options.socketPath = socketPath("vwin");
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    for (uint32_t version : {3u, 4u, 7u, 99u}) {
        wire::HelloRejectFrame reject;
        ASSERT_TRUE(rawRejectedHello(options.socketPath, version, reject))
            << "version " << version << " negotiated";
        EXPECT_NE(reject.message.find("speaks 6"), std::string::npos)
            << "reject does not name the version: " << reject.message;
    }
    server.stop();
}

/**
 * The TCP acceptance gate: the full checked-in conformance corpus
 * through a daemon serving tcp:127.0.0.1 on an ephemeral port, warm
 * across all modules, produces canonical summaries byte-identical to
 * the local pipeline — the unix-socket corpus parity of daemon_test,
 * re-proved over the transport multi-host deployments actually use.
 */
TEST(FailoverTest, FullConformanceCorpusOverTcpMatchesLocal)
{
    std::vector<conformance::CorpusCase> cases =
        conformance::loadCorpusDir(KEQ_CORPUS_DIR);
    ASSERT_FALSE(cases.empty());

    ServerOptions options;
    options.listen = {tcpEndpoint("127.0.0.1", 0)};
    options.jobs = 4;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_EQ(server.boundEndpoints().size(), 1u);
    ASSERT_NE(server.boundEndpoints()[0].port, 0)
        << "ephemeral TCP listen did not resolve its port";

    DaemonClientOptions copts;
    copts.endpoints = {server.boundEndpoints()[0]};
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;

    for (const conformance::CorpusCase &corpusCase : cases) {
        driver::PipelineOptions poptions;
        poptions.isel = corpusCase.isel;
        std::vector<std::string> names =
            definedFunctions(corpusCase.source);
        std::vector<driver::FunctionReport> reports;
        std::vector<bool> decided;
        ASSERT_TRUE(client.validateFunctions(corpusCase.source, names,
                                             poptions, reports,
                                             decided, error))
            << corpusCase.name << ": " << error;
        EXPECT_EQ(canonicalSummary(reports),
                  localSummary(corpusCase.source, poptions))
            << "corpus file " << corpusCase.name
            << " diverged over TCP";
    }
    EXPECT_EQ(client.failovers(), 0u);
    server.stop();
}

/**
 * The silent-TCP-peer scenario: a fake daemon completes the handshake
 * and then never answers anything — no verdicts, no Pongs, no FIN.
 * The heartbeat must declare it dead in ~interval+timeout, orders of
 * magnitude before the 10-minute verdict deadline, and the failure is
 * the *typed* Timeout keqc's degradation path classifies.
 */
TEST(FailoverTest, HeartbeatDetectsSilentPeerFast)
{
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(
        listener.listenOn(tcpEndpoint("127.0.0.1", 0), error))
        << error;

    std::atomic<bool> stopAccepting{false};
    std::thread fakeDaemon([&] {
        // Serve (and ignore) every connection this test makes: the
        // client's failover rounds reconnect here several times.
        while (!stopAccepting.load()) {
            int fd = listener.acceptClient(200);
            if (fd < 0)
                continue;
            std::thread([fd] {
                WireChannel channel(fd);
                std::string payload;
                if (channel.recvFrame(payload, 5000) != IoStatus::Ok)
                    return;
                wire::ServerHelloFrame ack;
                channel.sendFrame(wire::encodeServerHello(ack));
                // ... then total silence, reading nothing, until the
                // client hangs up.
                while (channel.waitReadable(100) != IoStatus::Eof &&
                       channel.valid()) {
                    std::string sink;
                    if (channel.recvFrame(sink, 100) == IoStatus::Eof)
                        break;
                }
            }).detach();
        }
    });

    DaemonClientOptions copts;
    copts.endpoints = {listener.endpoint()};
    copts.heartbeatIntervalMs = 150;
    copts.heartbeatTimeoutMs = 300;
    copts.verdictTimeoutMs = 600000; // must NOT be what bounds us
    copts.reconnectRounds = 1;
    copts.reconnectBackoffInitialMs = 10;
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;

    std::string source = testModule(1);
    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    auto start = std::chrono::steady_clock::now();
    bool complete = client.validateFunctions(
        source, definedFunctions(source), driver::PipelineOptions{},
        reports, decided, error);
    auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();

    EXPECT_FALSE(complete);
    EXPECT_EQ(client.failure(), FailureKind::Timeout)
        << "a silent peer must classify as Timeout, got " << error;
    // interval (150) + timeout (300) + one failover retry on the same
    // silent endpoint + slack: far under the verdict deadline.
    EXPECT_LT(elapsedMs, 10000)
        << "heartbeat failed to beat the verdict deadline";

    client.close();
    stopAccepting.store(true);
    fakeDaemon.join();
    listener.close();
}

} // namespace
} // namespace keq::service
