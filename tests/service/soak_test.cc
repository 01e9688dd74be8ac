/** @file Month-scale soak: several clients hammer one daemon for a
 *  wall-clock budget (KEQ_SOAK_SECONDS, default 2; CI stretches it to
 *  60 under ASan) with trust-but-verify auditing on *every* warm hit,
 *  a byte-capped verdict store, and concurrent SIGHUP-style
 *  scrub+compact maintenance. The invariant under all of that churn:
 *  every verdict served is byte-identical to a daemonless run, and the
 *  audit never catches the daemon lying (zero mismatches). */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/service/client.h"
#include "src/service/server.h"

namespace keq::service {
namespace {

std::string
tempSocket(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("keqd-" + stem + "-" + std::to_string(::getpid()) +
             ".sock"))
        .string();
}

std::string
makeModule(uint64_t seed, size_t functions)
{
    driver::CorpusOptions options;
    options.seed = seed;
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

unsigned
soakSeconds()
{
    const char *env = std::getenv("KEQ_SOAK_SECONDS");
    if (env != nullptr) {
        long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<unsigned>(parsed);
    }
    return 2; // short enough for tier-1; CI raises it
}

TEST(DaemonSoakTest, MultiClientSoakWithFullAuditingStaysHonest)
{
    constexpr int kClients = 3;
    const unsigned seconds = soakSeconds();
    std::string journal =
        (std::filesystem::temp_directory_path() /
         ("keqd-soak-" + std::to_string(::getpid()) + ".journal"))
            .string();
    std::filesystem::remove(journal);

    ServerOptions options;
    options.listen = unixEndpoint(tempSocket("soak"));
    options.jobs = 4;
    options.verdictJournalPath = journal;
    options.auditRate = 1.0; // audit every journal-preloaded hit
    options.verdictStoreMaxBytes = 256 * 1024; // exercise LRU eviction
    options.storeCompactMinRecords = 64;
    options.maxQueuedPerClient = 16;
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // Each client soaks its own module; the daemonless summary is the
    // ground truth every iteration must reproduce.
    std::vector<std::string> sources;
    std::vector<std::string> references;
    driver::PipelineOptions poptions;
    for (int i = 0; i < kClients; ++i) {
        sources.push_back(makeModule(0x50a0 + i, 3));
        references.push_back(localSummary(sources[i], poptions));
    }

    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(seconds);
    std::atomic<uint64_t> iterations{0};
    std::atomic<uint64_t> parityFailures{0};
    std::atomic<uint64_t> transportFailures{0};
    std::vector<std::string> firstError(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            std::vector<std::string> functions =
                definedFunctions(sources[i]);
            while (std::chrono::steady_clock::now() < deadline) {
                // Fresh connection per iteration: soak the accept and
                // teardown paths too, not just warm-cache serving.
                DaemonClientOptions copts;
                copts.endpoints = options.listen;
                copts.busyBackoffInitialMs = 1;
                DaemonClient client(copts);
                std::string err;
                std::vector<driver::FunctionReport> reports;
                std::vector<bool> decided;
                if (!client.connect(err) ||
                    !client.validateFunctions(sources[i], functions,
                                              poptions, reports,
                                              decided, err)) {
                    ++transportFailures;
                    if (firstError[i].empty())
                        firstError[i] = err;
                    continue;
                }
                if (canonicalSummary(reports) != references[i])
                    ++parityFailures;
                ++iterations;
            }
        });
    }

    // Main thread plays operator: periodic SIGHUP-style maintenance
    // while the clients are mid-flight.
    uint64_t maintenanceRounds = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        server.scrubAndCompactStore();
        ++maintenanceRounds;
    }
    for (std::thread &client : clients)
        client.join();
    ServerStats stats = server.stats();
    VerdictStore::Stats store = server.store().stats();
    server.stop();
    std::filesystem::remove(journal);

    EXPECT_GT(iterations.load(), 0u) << "soak made no progress";
    EXPECT_GT(maintenanceRounds, 0u);
    for (int i = 0; i < kClients; ++i)
        EXPECT_TRUE(firstError[i].empty())
            << "client " << i << ": " << firstError[i];
    EXPECT_EQ(transportFailures.load(), 0u);
    EXPECT_EQ(parityFailures.load(), 0u)
        << "daemon verdicts diverged from daemonless ground truth";
    // The whole point of the soak: with every warm hit audited, the
    // store never served a verdict a pristine solver disagreed with.
    EXPECT_EQ(stats.auditMismatches, 0u);
    EXPECT_EQ(store.quarantined, 0u);
    EXPECT_EQ(store.scrubRejected, 0u);
}

} // namespace
} // namespace keq::service
