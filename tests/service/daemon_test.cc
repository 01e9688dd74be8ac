/** @file In-process daemon integration: handshake negotiation (and its
 *  typed rejections), daemon-vs-local verdict parity — including the
 *  full conformance corpus — warm-cache behaviour across clients,
 *  Busy backpressure, and concurrent clients. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/conformance/corpus.h"
#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/service/client.h"
#include "src/service/job_options.h"
#include "src/service/server.h"
#include "src/smt/wire.h"
#include "src/support/journal.h"

namespace keq::service {
namespace {

namespace wire = smt::wire;

/** Unique socket path per test (sun_path is short; stay terse). */
std::string
tempSocket(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("keqd-" + stem + "-" + std::to_string(::getpid()) +
             ".sock"))
        .string();
}

/** A small deterministic Figure 6-style module. */
std::string
testModule(size_t functions = 4)
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

/** Local (daemonless) reference run. */
std::string
localSummary(const std::string &source,
             const driver::PipelineOptions &options)
{
    driver::Pipeline pipeline(options);
    llvmir::Module module = llvmir::parseModule(source);
    return pipeline.run(module).canonicalSummary();
}

/** Polls @p predicate every few ms until true or @p budgetMs expires. */
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

/** Runs every defined function of @p source through the daemon. */
std::vector<driver::FunctionReport>
daemonRun(DaemonClient &client, const std::string &source,
          const driver::PipelineOptions &options)
{
    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    std::string error;
    EXPECT_TRUE(client.validateFunctions(source,
                                         definedFunctions(source),
                                         options, reports, decided,
                                         error))
        << error;
    for (size_t i = 0; i < decided.size(); ++i)
        EXPECT_TRUE(decided[i]) << "function " << i << " undecided";
    return reports;
}

TEST(DaemonTest, StartStatusStop)
{
    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("lifecycle"));
    options.jobs = 2;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;
    EXPECT_EQ(client.serverHello().protocolVersion,
              wire::kProtocolVersion);

    wire::JobStatusFrame status;
    ASSERT_TRUE(client.queryStatus(status, error)) << error;
    EXPECT_EQ(status.completedJobs, 0u);
    EXPECT_EQ(status.activeClients, 1u);

    server.stop();
    EXPECT_FALSE(std::filesystem::exists(options.listen.path))
        << "socket not unlinked on clean stop";
}

TEST(DaemonTest, SecondDaemonOnSamePathRefusesToStart)
{
    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("exclusive"));
    Server first(options);
    std::string error;
    ASSERT_TRUE(first.start(error)) << error;

    Server second(options);
    EXPECT_FALSE(second.start(error));
    EXPECT_NE(error.find("already listening"), std::string::npos)
        << error;
    first.stop();
}

TEST(DaemonTest, VersionMismatchGetsTypedReject)
{
    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("version"));
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = -1;
    ASSERT_TRUE(connectUnix(options.listen.path, 2000, fd, error))
        << error;
    WireChannel channel(fd);
    wire::ClientHelloFrame hello;
    hello.protocolVersion = 99;
    ASSERT_TRUE(channel.sendFrame(wire::encodeClientHello(hello)));

    std::string payload;
    ASSERT_EQ(channel.recvFrame(payload, 5000), support::IoStatus::Ok);
    wire::FrameType type{};
    std::string body;
    ASSERT_TRUE(wire::splitFrame(payload, type, body));
    ASSERT_EQ(type, wire::FrameType::HelloReject);
    wire::HelloRejectFrame reject;
    ASSERT_TRUE(wire::decodeHelloReject(body, reject, error)) << error;
    // The reject names both versions, so a skewed client can say
    // exactly what to upgrade.
    EXPECT_EQ(reject.supportedVersion, wire::kProtocolVersion);
    EXPECT_NE(reject.message.find("99"), std::string::npos);
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
           channel.recvFrame(payload, 5000) == support::IoStatus::Ok &&
           wire::splitFrame(payload, type, body) &&
           type == wire::FrameType::HelloReject &&
           wire::decodeHelloReject(body, reject, error);
}

/** A v6 client, whose SubmitJob carries a fingerprint and whose
 *  JobStatus expects dedup and per-transport counters v7 dropped, gets
 *  a typed HelloReject naming its version and the daemon's instead of
 *  frames it would misread. */
TEST(DaemonTest, V6ClientGetsATypedHelloReject)
{
    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("v6"));
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    wire::HelloRejectFrame reject;
    ASSERT_TRUE(rawRejectedHello(options.listen.path, 6, reject));
    EXPECT_EQ(reject.supportedVersion, 7u);
    EXPECT_NE(reject.message.find("unsupported protocol version 6 "
                                  "(daemon speaks 7)"),
              std::string::npos)
        << reject.message;
    server.stop();
}

/** Every version but the daemon's own, older or newer, gets a typed
 *  HelloReject naming the supported version. */
TEST(DaemonTest, OutOfWindowVersionsAreRejected)
{
    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("vwin"));
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    for (uint32_t version : {3u, 4u, 5u, 6u, 8u, 99u}) {
        wire::HelloRejectFrame reject;
        ASSERT_TRUE(
            rawRejectedHello(options.listen.path, version, reject))
            << "version " << version << " negotiated";
        EXPECT_EQ(reject.supportedVersion, wire::kProtocolVersion);
        EXPECT_NE(reject.message.find("speaks 7"), std::string::npos)
            << "reject does not name the version: " << reject.message;
    }
    server.stop();
}

TEST(DaemonTest, GarbageHelloIsRejectedNotCrashed)
{
    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("garbage"));
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = -1;
    ASSERT_TRUE(connectUnix(options.listen.path, 2000, fd, error))
        << error;
    WireChannel channel(fd);
    // A SubmitJob before any hello is a protocol violation.
    wire::SubmitJobFrame job;
    job.jobId = 1;
    job.function = "@x";
    job.moduleText = "define i32 @x() {\nret i32 0\n}\n";
    ASSERT_TRUE(channel.sendFrame(wire::encodeSubmitJob(job)));

    std::string payload;
    ASSERT_EQ(channel.recvFrame(payload, 5000), support::IoStatus::Ok);
    wire::FrameType type{};
    std::string body;
    ASSERT_TRUE(wire::splitFrame(payload, type, body));
    EXPECT_EQ(type, wire::FrameType::HelloReject);

    // The daemon remains healthy for well-behaved clients.
    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    DaemonClient client(copts);
    EXPECT_TRUE(client.connect(error)) << error;
    server.stop();
    EXPECT_GT(server.stats().helloRejects, 0u);
}

TEST(DaemonTest, VerdictsMatchLocalPipeline)
{
    std::string source = testModule(5);
    driver::PipelineOptions poptions;

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("parity"));
    options.jobs = 4;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;
    std::vector<driver::FunctionReport> reports =
        daemonRun(client, source, poptions);
    server.stop();

    EXPECT_EQ(canonicalSummary(reports),
              localSummary(source, poptions));
}

TEST(DaemonTest, SecondClientRunsFullyWarm)
{
    std::string source = testModule(5);
    driver::PipelineOptions poptions;

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("warm"));
    options.jobs = 2;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    std::string coldSummary;
    {
        DaemonClient cold(copts);
        ASSERT_TRUE(cold.connect(error)) << error;
        coldSummary =
            canonicalSummary(daemonRun(cold, source, poptions));
    }
    {
        DaemonClient warm(copts);
        ASSERT_TRUE(warm.connect(error)) << error;
        std::vector<driver::FunctionReport> reports =
            daemonRun(warm, source, poptions);
        EXPECT_EQ(canonicalSummary(reports), coldSummary);
        // Every query the warm run consulted the cache for must hit:
        // that is the whole point of the shared daemon-side cache.
        uint64_t hits = 0;
        uint64_t misses = 0;
        for (const driver::FunctionReport &report : reports) {
            hits += report.verdict.stats.solverStats.cacheHits;
            misses += report.verdict.stats.solverStats.cacheMisses;
        }
        EXPECT_GT(hits, 0u);
        EXPECT_EQ(misses, 0u);
    }
    server.stop();
}

TEST(DaemonTest, BusyBackpressureStillDecidesEverything)
{
    std::string source = testModule(6);
    driver::PipelineOptions poptions;

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("busy"));
    options.jobs = 1;
    options.maxInFlightPerClient = 1;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    copts.submitWindow = 8; // deliberately larger than the cap
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;
    std::vector<driver::FunctionReport> reports =
        daemonRun(client, source, poptions);
    EXPECT_GT(client.busyRetries(), 0u)
        << "cap 1 with window 8 never pushed back";
    server.stop();
    EXPECT_GT(server.stats().busyRejects, 0u);

    EXPECT_EQ(canonicalSummary(reports),
              localSummary(source, poptions));
}

TEST(DaemonTest, ConcurrentClientsGetIdenticalVerdicts)
{
    std::string source = testModule(4);
    driver::PipelineOptions poptions;

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("concurrent"));
    options.jobs = 4;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    constexpr int kClients = 3;
    std::vector<std::string> summaries(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            DaemonClientOptions copts;
            copts.endpoints = options.listen;
            copts.clientName = "client-" + std::to_string(i);
            DaemonClient client(copts);
            std::string connectError;
            if (!client.connect(connectError)) {
                errors[i] = connectError;
                return;
            }
            std::vector<driver::FunctionReport> reports;
            std::vector<bool> decided;
            std::string runError;
            if (!client.validateFunctions(source,
                                          definedFunctions(source),
                                          poptions, reports, decided,
                                          runError)) {
                errors[i] = runError;
                return;
            }
            summaries[i] = canonicalSummary(reports);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    server.stop();

    std::string reference = localSummary(source, poptions);
    for (int i = 0; i < kClients; ++i) {
        EXPECT_TRUE(errors[i].empty()) << errors[i];
        EXPECT_EQ(summaries[i], reference) << "client " << i;
    }
}

/**
 * The acceptance gate: every file of the checked-in conformance corpus
 * through the daemon produces canonical summaries byte-identical to
 * the local pipeline, with the daemon (and its shared cache + verdict
 * store) held warm across all the modules and ISel configurations.
 */
TEST(DaemonTest, FullConformanceCorpusMatchesLocal)
{
    std::vector<conformance::CorpusCase> cases =
        conformance::loadCorpusDir(KEQ_CORPUS_DIR);
    ASSERT_FALSE(cases.empty());

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("corpus"));
    options.jobs = 4;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;

    for (const conformance::CorpusCase &corpusCase : cases) {
        driver::PipelineOptions poptions;
        poptions.isel = corpusCase.isel;
        std::vector<driver::FunctionReport> reports =
            daemonRun(client, corpusCase.source, poptions);
        EXPECT_EQ(canonicalSummary(reports),
                  localSummary(corpusCase.source, poptions))
            << "corpus file " << corpusCase.name
            << " diverged through the daemon";
    }
    server.stop();
}

/**
 * Graceful drain is lossless for *admitted* jobs: every job the daemon
 * accepted before beginDrain() gets a real verdict (parity with local),
 * nothing is dropped, and the daemon reports drained once the queue and
 * workers are idle. New connections are refused while draining.
 */
TEST(DaemonTest, DrainLosesZeroAcceptedJobs)
{
    std::string source = testModule(6);
    std::vector<std::string> functions = definedFunctions(source);
    driver::PipelineOptions poptions;

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("drain"));
    options.jobs = 1; // serialize, so most jobs still queue at drain time
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    copts.submitWindow = static_cast<unsigned>(functions.size());
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;

    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    std::string runError;
    bool ok = false;
    std::thread run([&] {
        ok = client.validateFunctions(source, functions, poptions,
                                      reports, decided, runError);
    });
    // Wait for every submission to be admitted, then drain mid-flight.
    ASSERT_TRUE(eventually([&] {
        return server.stats().submitted >= functions.size();
    }));
    server.beginDrain();
    run.join();

    EXPECT_TRUE(ok) << runError;
    for (size_t i = 0; i < decided.size(); ++i)
        EXPECT_TRUE(decided[i]) << "function " << i << " lost in drain";
    EXPECT_TRUE(eventually([&] { return server.drained(); }))
        << "daemon never reported drained";
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, functions.size());
    EXPECT_EQ(stats.droppedJobs, 0u);
    EXPECT_EQ(canonicalSummary(reports), localSummary(source, poptions));

    // A draining daemon refuses new connections outright.
    DaemonClient late(copts);
    EXPECT_FALSE(late.connect(error));
    server.stop();
}

/**
 * A client already connected when the drain begins gets typed Busy on
 * every submit; its circuit breaker trips after the configured all-Busy
 * rounds and it degrades (Timeout-classified) with nothing decided —
 * exactly what keqc needs to fall back to local solving.
 */
TEST(DaemonTest, DrainingDaemonBouncesSubmitsUntilBreakerTrips)
{
    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("drainbusy"));
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    copts.busyBackoffInitialMs = 1;
    copts.busyBackoffMaxMs = 4;
    copts.busyBreakerRounds = 3;
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;
    server.beginDrain();

    std::string source = testModule(2);
    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    EXPECT_FALSE(client.validateFunctions(source,
                                          definedFunctions(source),
                                          driver::PipelineOptions{},
                                          reports, decided, error));
    EXPECT_TRUE(client.busyBreakerTripped()) << error;
    EXPECT_EQ(client.failure(), FailureKind::Timeout);
    for (size_t i = 0; i < decided.size(); ++i)
        EXPECT_FALSE(decided[i]) << "function " << i;
    EXPECT_GT(client.busyRetries(), 0u);
    ServerStats stats = server.stats();
    EXPECT_GT(stats.busyRejects, 0u);
    EXPECT_EQ(stats.completed, 0u);
    server.stop();
}

/**
 * Per-client quotas (token-bucket rate + queued-jobs cap) throttle a
 * bursty client with typed Busy replies, yet the client's backoff still
 * decides every function with verdicts identical to a local run —
 * quotas shape load, they never change answers.
 */
TEST(DaemonTest, AdmissionQuotasThrottleButStillDecideEverything)
{
    std::string source = testModule(6);
    driver::PipelineOptions poptions;

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("quota"));
    options.jobs = 2;
    options.maxQueuedPerClient = 1;
    options.clientRatePerSec = 50.0;
    options.clientBurst = 1;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    copts.submitWindow = 8;
    copts.busyBackoffInitialMs = 1;
    copts.busyBreakerRounds = 0; // quota refill is progress; no breaker
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;

    std::vector<driver::FunctionReport> reports =
        daemonRun(client, source, poptions);
    EXPECT_EQ(canonicalSummary(reports), localSummary(source, poptions));
    ServerStats stats = server.stats();
    EXPECT_GT(stats.quotaRejects, 0u)
        << "burst never hit the token bucket or queue cap";
    EXPECT_EQ(stats.completed, definedFunctions(source).size());
    server.stop();
}

/**
 * Job deadlines are counted from admission: with a 1 ms budget and one
 * worker, jobs stuck behind the head of the queue expire *in the queue*
 * and come back as typed Timeout verdicts without burning solver time.
 * The client still gets a decision for every function.
 */
TEST(DaemonTest, JobDeadlinesExpireQueuedJobsToTimeout)
{
    std::string source = testModule(8);
    std::vector<std::string> functions = definedFunctions(source);
    driver::PipelineOptions poptions;

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("deadline"));
    options.jobs = 1;
    options.jobDeadlineMs = 1;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    copts.submitWindow = static_cast<unsigned>(functions.size());
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;

    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    ASSERT_TRUE(client.validateFunctions(source, functions, poptions,
                                         reports, decided, error))
        << error;
    size_t timeouts = 0;
    for (size_t i = 0; i < decided.size(); ++i) {
        EXPECT_TRUE(decided[i]) << "function " << i << " undecided";
        if (reports[i].outcome == driver::Outcome::Timeout)
            ++timeouts;
    }
    ServerStats stats = server.stats();
    EXPECT_GT(stats.expiredJobs, 0u);
    EXPECT_GT(timeouts, 0u);
    EXPECT_EQ(stats.completed, functions.size());
    server.stop();
}

/**
 * Trust-but-verify end to end: a journal record rewritten with a *lie*
 * (verdict flipped, checksum recomputed — so the integrity scrub cannot
 * catch it) is detected on its first warm hit under --audit-rate=1.0,
 * quarantined in the store, and re-solved fresh. The warm run's
 * verdicts are byte-identical to the honest cold run's.
 */
TEST(DaemonTest, PoisonedJournalVerdictIsAuditedQuarantinedAndResolved)
{
    std::string source = testModule(4);
    driver::PipelineOptions poptions;
    std::string journal =
        (std::filesystem::temp_directory_path() /
         ("keqd-poison-" + std::to_string(::getpid()) + ".journal"))
            .string();
    std::filesystem::remove(journal);

    std::string coldSummary;
    {
        ServerOptions options;
        options.listen = unixEndpoint(tempSocket("audit-cold"));
        options.jobs = 2;
        options.verdictJournalPath = journal;
        Server server(options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        DaemonClientOptions copts;
        copts.endpoints = options.listen;
        DaemonClient client(copts);
        ASSERT_TRUE(client.connect(error)) << error;
        coldSummary = canonicalSummary(daemonRun(client, source, poptions));
        server.stop();
    }

    // Flip the first stored verdict ('s' <-> 'u') and rewrite the
    // journal; JournalWriter recomputes a valid line checksum, so the
    // lie is indistinguishable from an honest record at scrub time.
    support::JournalLoad load =
        support::loadJournal(journal, VerdictStore::kKind);
    ASSERT_TRUE(load.ok) << load.error;
    ASSERT_FALSE(load.records.empty());
    size_t flipped = 0;
    for (std::string &record : load.records) {
        if (flipped > 0 || record.empty() || record[0] != 'g')
            continue;
        size_t colon = record.find(':');
        ASSERT_NE(colon, std::string::npos) << record;
        ASSERT_LT(colon + 1, record.size());
        char &verdict = record[colon + 1];
        ASSERT_TRUE(verdict == 's' || verdict == 'u') << record;
        verdict = verdict == 's' ? 'u' : 's';
        ++flipped;
    }
    ASSERT_EQ(flipped, 1u);
    std::filesystem::remove(journal);
    {
        support::JournalWriter writer(journal, VerdictStore::kKind);
        for (const std::string &record : load.records)
            writer.append(record);
    }

    {
        ServerOptions options;
        options.listen = unixEndpoint(tempSocket("audit-warm"));
        options.jobs = 2;
        options.verdictJournalPath = journal;
        options.auditRate = 1.0;
        Server server(options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        DaemonClientOptions copts;
        copts.endpoints = options.listen;
        DaemonClient client(copts);
        ASSERT_TRUE(client.connect(error)) << error;
        std::string warmSummary =
            canonicalSummary(daemonRun(client, source, poptions));
        EXPECT_EQ(warmSummary, coldSummary)
            << "audited warm run diverged from the honest cold run";
        EXPECT_GE(server.stats().auditMismatches, 1u)
            << "the poisoned record was served without an audit";
        EXPECT_GE(server.store().stats().quarantined, 1u);
        server.stop();
    }
    std::filesystem::remove(journal);
}

/**
 * A client that vanishes mid-run must not pin the daemon: its queued
 * jobs are dropped unsolved (droppedJobs accounts for every admitted
 * job that never completed) and the daemon keeps serving other clients.
 */
TEST(DaemonTest, DisconnectedClientsQueuedJobsAreDropped)
{
    std::string source = testModule(8);
    std::vector<std::string> functions = definedFunctions(source);

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("vanish"));
    options.jobs = 1;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // Raw wire client so we can hang up without a clean close.
    int fd = -1;
    ASSERT_TRUE(connectUnix(options.listen.path, 2000, fd, error))
        << error;
    {
        WireChannel channel(fd);
        ASSERT_TRUE(channel.sendFrame(
            wire::encodeClientHello(wire::ClientHelloFrame{})));
        std::string payload;
        ASSERT_EQ(channel.recvFrame(payload, 5000),
                  support::IoStatus::Ok);
        wire::JobOptionsFrame jobOptions =
            encodeJobOptions(driver::PipelineOptions{});
        for (size_t i = 0; i < functions.size(); ++i) {
            wire::SubmitJobFrame job;
            job.jobId = static_cast<uint64_t>(i) + 1;
            job.function = functions[i];
            job.moduleText = source;
            job.options = jobOptions;
            ASSERT_TRUE(channel.sendFrame(wire::encodeSubmitJob(job)));
        }
        ASSERT_TRUE(eventually([&] {
            return server.stats().submitted >= functions.size();
        }));
    } // hang up with jobs queued

    // Every admitted job either completed (head of queue, mid-solve)
    // or was dropped on disconnect; none may linger.
    ASSERT_TRUE(eventually([&] {
        ServerStats stats = server.stats();
        return stats.completed + stats.droppedJobs >= functions.size();
    }));
    ServerStats stats = server.stats();
    EXPECT_GT(stats.droppedJobs, 0u)
        << "dead client's queued jobs were solved anyway";
    EXPECT_EQ(stats.completed + stats.droppedJobs, functions.size());

    // The daemon is still healthy for the next client.
    DaemonClientOptions copts;
    copts.endpoints = options.listen;
    DaemonClient client(copts);
    ASSERT_TRUE(client.connect(error)) << error;
    driver::PipelineOptions poptions;
    std::vector<driver::FunctionReport> reports =
        daemonRun(client, source, poptions);
    EXPECT_EQ(canonicalSummary(reports), localSummary(source, poptions));
    server.stop();
}

} // namespace
} // namespace keq::service
