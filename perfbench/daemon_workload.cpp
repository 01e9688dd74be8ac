/**
 * @file
 * keqd-warm: an in-process validation daemon (service::Server) on a unix
 * socket, its verdict store filled by one cold pass over the gen300
 * corpus, then a closed loop of client connections that each submit one
 * function job at a time and wait for its verdict. Every verdict must be
 * byte-identical to a local Pipeline reference.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "common.h"
#include "corpus_workloads.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/support/thread_pool.h"

namespace perfbench {

using keq::driver::FunctionReport;

namespace {

/** Closed-loop clients; with the server's pool they use the 4 cores. */
constexpr unsigned kClients = 2;
constexpr unsigned kServerWorkers = 2;
/** Each set-up includes a cold validation of the corpus (seconds). */
constexpr int kSetupRepeats = 2;

std::string
socketPath(const RunOptions &options, int index)
{
    return options.workdir + "/keqd-" + std::to_string(::getpid()) + "-" +
           std::to_string(index) + ".sock";
}

std::unique_ptr<keq::service::Server>
startDaemon(const std::string &socket)
{
    keq::service::ServerOptions server;
    server.listen = {keq::service::unixEndpoint(socket)};
    server.jobs = kServerWorkers;
    auto daemon = std::make_unique<keq::service::Server>(server);
    std::string error;
    if (!daemon->start(error))
        throw std::runtime_error("daemon start: " + error);
    return daemon;
}

std::unique_ptr<keq::service::DaemonClient>
connectClient(const std::string &socket, const std::string &name,
              unsigned window)
{
    keq::service::DaemonClientOptions client;
    client.endpoints = {keq::service::unixEndpoint(socket)};
    client.clientName = name;
    client.submitWindow = window;
    auto connection = std::make_unique<keq::service::DaemonClient>(client);
    std::string error;
    if (!connection->connect(error))
        throw std::runtime_error("daemon connect: " + error);
    return connection;
}

/** One client's share of a pass: its jobs' reports and round trips. */
struct ClientPass
{
    std::vector<size_t> functions;
    std::vector<FunctionReport> reports;
    std::vector<double> seconds;
    std::vector<std::string> errors;
    uint64_t busy = 0;
};

void
runClient(keq::service::DaemonClient &client, const Corpus &corpus,
          const std::vector<std::string> &names, ClientPass &pass,
          Trace::Lane *lane)
{
    uint64_t busyBefore = client.busyRetries();
    for (size_t index : pass.functions) {
        std::vector<FunctionReport> reports;
        std::vector<bool> decided;
        std::string error;
        ScopedSpan span(lane, "service.job", index);
        Clock::time_point start = Clock::now();
        bool ok = client.validateFunctions(corpus.source, {names[index]}, {},
                                           reports, decided, error);
        pass.seconds.push_back(secondsSince(start));
        if (!ok || decided.empty() || !decided[0]) {
            pass.errors.push_back(names[index] + ": " + error);
            pass.reports.emplace_back();
        } else {
            pass.reports.push_back(std::move(reports[0]));
        }
    }
    pass.busy = client.busyRetries() - busyBefore;
}

} // namespace

Result
runKeqdWarm(const RunOptions &options)
{
    Result result;
    // Corpus generation and parsing are part of each set-up repeat; the
    // daemon start and its cold fill are added to them below.
    Result corpusSetup;
    Corpus corpus = prepareCorpus(options, corpusOptions(options, 300, true),
                                  kSetupRepeats, corpusSetup);
    std::vector<std::string> names;
    for (const keq::llvmir::Function *fn : corpus.functions)
        names.push_back(fn->name);
    size_t count = names.size();

    // Known answers: a local cold Pipeline run. Left warm afterwards, it
    // also serves the traced run's local replay of each job.
    keq::driver::ExecutionOptions exec;
    exec.jobs = std::min(4u, keq::support::ThreadPool::hardwareThreads());
    keq::driver::Pipeline reference({}, exec);
    keq::driver::ModuleReport referenceReport =
        reference.runParallel(*corpus.module);
    std::vector<std::string> expected;
    for (const FunctionReport &report : referenceReport.functions) {
        expected.push_back(report.canonicalSummary());
        if (!validated(report))
            result.wrong("local reference " + report.function + ": " +
                         keq::driver::outcomeName(report.outcome));
    }

    std::unique_ptr<keq::service::Server> daemon;
    std::string socket;
    for (size_t i = 0; i < corpusSetup.setupS.size(); ++i) {
        if (daemon != nullptr) {
            daemon->stop();
            std::remove(socket.c_str());
        }
        Clock::time_point start = Clock::now();
        socket = socketPath(options, static_cast<int>(i));
        std::remove(socket.c_str());
        daemon = startDaemon(socket);
        auto fill = connectClient(socket, "perfbench-fill", 8);
        std::vector<FunctionReport> reports;
        std::vector<bool> decided;
        std::string error;
        if (!fill->validateFunctions(corpus.source, names, {}, reports,
                                     decided, error))
            throw std::runtime_error("cold fill: " + error);
        result.setupS.push_back(corpusSetup.setupS[i] + secondsSince(start));
        for (size_t f = 0; f < count; ++f)
            if (reports[f].canonicalSummary() != expected[f])
                result.wrong("cold fill " + names[f] +
                             " differs from the local reference");
    }

    std::vector<std::unique_ptr<keq::service::DaemonClient>> clients;
    for (unsigned c = 0; c < kClients; ++c)
        clients.push_back(connectClient(
            socket, "perfbench-" + std::to_string(c), 1));

    // Each pass submits every corpus function once, split between the
    // clients; the run seed rotates where each client starts.
    size_t rotation = options.seed % count;
    result.unitsPerPass = count;
    Trace trace(kClients + 1);
    std::vector<LayerInputs> tracedPasses;
    double untracedWall = 0.0;
    Clock::time_point begin = Clock::now();
    for (size_t pass = 0;
         morePasses(options, pass, secondsSince(begin)); ++pass) {
        bool traced = options.trace && pass > 0;
        std::vector<ClientPass> shares(kClients);
        for (unsigned c = 0; c < kClients; ++c)
            for (size_t k = c * count / kClients;
                 k < (c + 1) * count / kClients; ++k)
                shares[c].functions.push_back((rotation + k) % count);
        uint64_t dedupBefore = daemon->stats().dedupHits;
        resetPeakRss();
        double cpu = cpuSeconds();
        Clock::time_point start = Clock::now();
        {
            std::vector<std::thread> threads;
            for (unsigned c = 0; c < kClients; ++c)
                threads.emplace_back(runClient, std::ref(*clients[c]),
                                     std::cref(corpus), std::cref(names),
                                     std::ref(shares[c]),
                                     traced ? &trace.lane(c + 1) : nullptr);
            for (std::thread &thread : threads)
                thread.join();
        }
        double wall = secondsSince(start);
        double cpuUsed = cpuSeconds() - cpu;
        double rss = peakRssMb();
        uint64_t dedup = daemon->stats().dedupHits - dedupBefore;

        CheckCounts counts;
        LayerInputs in;
        uint64_t busy = 0;
        std::vector<double> latencies;
        for (const ClientPass &share : shares) {
            busy += share.busy;
            for (const std::string &error : share.errors)
                result.problems.push_back("transport: " + error);
            result.failed += share.errors.size();
            for (size_t j = 0; j < share.functions.size(); ++j) {
                size_t f = share.functions[j];
                const FunctionReport &report = share.reports[j];
                latencies.push_back(share.seconds[j] * 1000.0);
                in.unitSeconds.push_back(share.seconds[j]);
                counts.add(report);
                if (!report.function.empty() &&
                    report.canonicalSummary() != expected[f])
                    result.wrong(names[f] +
                                 " differs from the local reference");
            }
        }
        result.attempted += count + busy;
        result.failed += busy;
        recordCounts(result, counts);
        result.record("service.busy_retries", busy);
        result.record("service.dedup_hits", dedup);

        if (options.trace && pass == 0) {
            untracedWall = wall;
            continue;
        }
        result.wallS.push_back(wall);
        result.cpuS.push_back(cpuUsed);
        result.rssMb.push_back(rss);
        result.latencyMs.insert(result.latencyMs.end(), latencies.begin(),
                                latencies.end());
        if (!traced)
            continue;

        in.counts = counts;
        in.parseSeconds = corpus.parseSeconds;
        in.tracedWall = wall;
        in.untracedWall = untracedWall;
        in.concurrency = kClients;
        uint64_t lookups = counts.cacheHits + counts.cacheMisses;
        in.serviceHitRate =
            lookups > 0 ? static_cast<double>(counts.cacheHits) / lookups
                        : 0.0;
        in.busyRetries = busy;
        in.dedupHits = dedup;
        tracedPasses.push_back(std::move(in));
    }

    if (!tracedPasses.empty()) {
        // The daemon's reply carries no server-side timing, so the
        // server's share of a job is estimated by replaying every job on
        // the warm local Pipeline (each pass submits each function once);
        // the rest of the round trip is the service layer (wire, queue,
        // session, module cache). Replay and probes run after the timed
        // passes so they cannot disturb them.
        Probes probes = probeLayers(corpus, trace.lane(0));
        double localSeconds = 0.0, checkSeconds = 0.0, solverSeconds = 0.0;
        for (size_t f = 0; f < count; ++f) {
            ScopedSpan span(&trace.lane(0), "driver.validateFunction", f);
            Clock::time_point start = Clock::now();
            FunctionReport local = reference.validateFunction(
                *corpus.module, *corpus.functions[f]);
            localSeconds += secondsSince(start);
            checkSeconds += local.verdict.stats.totalSeconds;
            solverSeconds += local.verdict.stats.solverSeconds;
        }
        std::vector<LayerReport> reports;
        for (LayerInputs &in : tracedPasses) {
            in.iselSeconds = probes.iselTotal();
            in.vcgenSeconds = probes.vcgenTotal();
            in.validateSeconds = localSeconds;
            in.counts.checkSeconds = checkSeconds;
            in.counts.solverSeconds = solverSeconds;
            double roundTrips = 0.0;
            for (double seconds : in.unitSeconds)
                roundTrips += seconds;
            in.serviceSeconds = roundTrips - localSeconds;
            reports.push_back(computeLayers(in));
        }
        takeLayers(result, reports);
        if (!options.traceOut.empty())
            trace.write(options.traceOut);
    }

    clients.clear();
    daemon->stop();
    std::remove(socket.c_str());
    return result;
}

} // namespace perfbench
