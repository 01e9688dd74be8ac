/**
 * @file
 * keqd — the persistent validation daemon.
 *
 * Runs a service::Server on one Unix-domain socket: warm solver
 * stacks, a shared query cache backed by the persistent verdict store,
 * and per-client fair queueing. Clients are keqc --daemon=SOCKET (and
 * the service tests/bench).
 *
 * Usage:
 *   keq-daemon --socket=SOCKET [options]
 *     --socket=SOCKET        the socket to serve: unix:PATH or a bare
 *                            PATH
 *     --jobs=N               pool worker threads (0 = #cores)
 *     --max-inflight=N       per-client in-flight job cap before
 *                            Busy replies (0 = uncapped)
 *     --max-queued=N         per-client *queued* job cap (0 = off)
 *     --client-rate=X        per-client sustained submits/sec
 *                            (token bucket; 0 = unlimited)
 *     --client-burst=N       token-bucket burst size (default 64)
 *     --job-deadline-ms=N    wall deadline per job, queueing included
 *                            (0 = none)
 *     --verdict-journal=PATH persist the verdict store here; loaded
 *                            on startup, appended per fresh verdict
 *     --verdict-store-mb=N   byte cap on the resident verdict set;
 *                            LRU eviction past it (0 = unbounded)
 *     --journal-fsync=record|batch|off
 *                            verdict-journal durability (default off)
 *     --audit-rate=X         trust-but-verify sample of journal-
 *                            preloaded verdict hits re-checked before
 *                            being served (0 = off, 1 = every hit)
 *     --audit-seed=N         deterministic audit sampling seed
 *     --drain-timeout-ms=N   max graceful-drain wait on SIGTERM
 *                            before hard stop (default 30000)
 *     --solver-cache-mb=N    shared query-cache budget (default 512)
 *     --sandbox              solve in sandboxed worker processes
 *     --sandbox-workers=N    sandbox pool size (0 = match --jobs)
 *     --worker-memory-mb=N   RLIMIT_AS per sandbox worker
 *     --worker-path=PATH     explicit keq-solver-worker binary
 *     --status               query a running daemon and exit
 *     --stop                 ask a running daemon to shut down
 *
 * Signals:
 *   SIGTERM  graceful drain — stop accepting clients and submissions,
 *            finish every admitted job (bounded by --drain-timeout-ms),
 *            flush the journal, exit. Loses zero accepted jobs.
 *   SIGINT   immediate stop — in-flight checks are cancelled, queued
 *            jobs are dropped, the journal stays record-consistent.
 *   SIGHUP   maintenance — integrity-scrub the verdict store and
 *            compact its journal, while serving.
 *
 * A client Shutdown frame behaves like SIGINT.
 *
 * Exit code: 0 on clean shutdown / successful --status / --stop,
 * 1 when the daemon cannot start or the probe target is unreachable,
 * 2 for usage errors, 64 (EX_USAGE) for a malformed --socket spec
 * (the diagnostic names the offending spec and what was wrong).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <time.h>

#include "src/service/client.h"
#include "src/service/endpoint.h"
#include "src/service/server.h"
#include "src/support/journal.h"

namespace {

/** BSD sysexits EX_USAGE: malformed endpoint spec, not a typo'd flag. */
constexpr int kExUsage = 64;

volatile std::sig_atomic_t g_stop = 0;  // SIGINT: immediate
volatile std::sig_atomic_t g_drain = 0; // SIGTERM: graceful
volatile std::sig_atomic_t g_hup = 0;   // SIGHUP: scrub + compact

extern "C" void
handleStopSignal(int)
{
    g_stop = 1;
}

extern "C" void
handleDrainSignal(int)
{
    g_drain = 1;
}

extern "C" void
handleHupSignal(int)
{
    g_hup = 1;
}

struct CliOptions
{
    keq::service::ServerOptions server;
    unsigned drainTimeoutMs = 30000;
    bool status = false;
    bool stop = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --socket=unix:PATH|PATH [options]\n"
              << "  --jobs=N --max-inflight=N --max-queued=N\n"
              << "  --client-rate=X --client-burst=N "
                 "--job-deadline-ms=N\n"
              << "  --verdict-journal=PATH --verdict-store-mb=N "
                 "--journal-fsync=record|batch|off\n"
              << "  --audit-rate=X --audit-seed=N\n"
              << "  --drain-timeout-ms=N --solver-cache-mb=N\n"
              << "  --sandbox --sandbox-workers=N --worker-memory-mb=N "
                 "--worker-path=PATH\n"
              << "  --status --stop\n";
    std::exit(2);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value_of = [&](const std::string &prefix) {
            return arg.substr(prefix.size());
        };
        auto number_of = [&](const std::string &prefix) -> double {
            try {
                size_t used = 0;
                std::string text = value_of(prefix);
                double value = std::stod(text, &used);
                if (used != text.size() || value < 0)
                    usage(argv[0]);
                return value;
            } catch (const std::exception &) {
                usage(argv[0]);
            }
        };
        if (arg.rfind("--socket=", 0) == 0) {
            std::string endpointError;
            if (!keq::service::parseEndpoint(value_of("--socket="),
                                             options.server.listen,
                                             endpointError)) {
                std::cerr << "keqd: --socket: " << endpointError
                          << "\n";
                std::exit(kExUsage);
            }
        } else if (arg.rfind("--jobs=", 0) == 0) {
            options.server.jobs =
                static_cast<unsigned>(number_of("--jobs="));
        } else if (arg.rfind("--max-inflight=", 0) == 0) {
            options.server.maxInFlightPerClient =
                static_cast<unsigned>(number_of("--max-inflight="));
        } else if (arg.rfind("--max-queued=", 0) == 0) {
            options.server.maxQueuedPerClient =
                static_cast<unsigned>(number_of("--max-queued="));
        } else if (arg.rfind("--client-rate=", 0) == 0) {
            options.server.clientRatePerSec =
                number_of("--client-rate=");
        } else if (arg.rfind("--client-burst=", 0) == 0) {
            options.server.clientBurst =
                static_cast<unsigned>(number_of("--client-burst="));
        } else if (arg.rfind("--job-deadline-ms=", 0) == 0) {
            options.server.jobDeadlineMs =
                static_cast<unsigned>(number_of("--job-deadline-ms="));
        } else if (arg.rfind("--verdict-journal=", 0) == 0) {
            options.server.verdictJournalPath =
                value_of("--verdict-journal=");
        } else if (arg.rfind("--verdict-store-mb=", 0) == 0) {
            options.server.verdictStoreMaxBytes =
                static_cast<uint64_t>(
                    number_of("--verdict-store-mb="))
                << 20;
        } else if (arg.rfind("--journal-fsync=", 0) == 0) {
            if (!keq::support::fsyncPolicyFromName(
                    value_of("--journal-fsync=").c_str(),
                    options.server.journalFsync)) {
                usage(argv[0]);
            }
        } else if (arg.rfind("--audit-rate=", 0) == 0) {
            options.server.auditRate = number_of("--audit-rate=");
            if (options.server.auditRate > 1.0)
                usage(argv[0]);
        } else if (arg.rfind("--audit-seed=", 0) == 0) {
            options.server.auditSeed =
                static_cast<uint64_t>(number_of("--audit-seed="));
        } else if (arg.rfind("--drain-timeout-ms=", 0) == 0) {
            options.drainTimeoutMs =
                static_cast<unsigned>(number_of("--drain-timeout-ms="));
        } else if (arg.rfind("--solver-cache-mb=", 0) == 0) {
            options.server.cacheMemoryMb =
                static_cast<size_t>(number_of("--solver-cache-mb="));
        } else if (arg == "--sandbox") {
            options.server.sandbox = true;
        } else if (arg.rfind("--sandbox-workers=", 0) == 0) {
            options.server.sandboxWorkers =
                static_cast<unsigned>(number_of("--sandbox-workers="));
        } else if (arg.rfind("--worker-memory-mb=", 0) == 0) {
            options.server.workerMemoryMb =
                static_cast<unsigned>(number_of("--worker-memory-mb="));
        } else if (arg.rfind("--worker-path=", 0) == 0) {
            options.server.workerPath = value_of("--worker-path=");
        } else if (arg == "--status") {
            options.status = true;
        } else if (arg == "--stop") {
            options.stop = true;
        } else {
            usage(argv[0]);
        }
    }
    if (options.server.listen.path.empty())
        usage(argv[0]);
    if (options.status && options.stop)
        usage(argv[0]);
    return options;
}

int
runProbe(const CliOptions &options)
{
    using namespace keq;
    service::DaemonClientOptions copts;
    copts.endpoints = options.server.listen;
    copts.clientName = "keqd-cli";
    service::DaemonClient client(copts);
    std::string error;
    if (!client.connect(error)) {
        std::cerr << "keqd: " << error << "\n";
        return 1;
    }
    if (options.stop) {
        if (!client.requestShutdown(error)) {
            std::cerr << "keqd: " << error << "\n";
            return 1;
        }
        std::cout << "shutdown requested (daemon pid "
                  << client.serverHello().pid << ")\n";
        return 0;
    }
    smt::wire::JobStatusFrame status;
    if (!client.queryStatus(status, error)) {
        std::cerr << "keqd: " << error << "\n";
        return 1;
    }
    std::printf("daemon pid %llu on %s%s\n",
                static_cast<unsigned long long>(
                    client.serverHello().pid),
                service::endpointToString(options.server.listen).c_str(),
                status.draining != 0 ? " (draining)" : "");
    std::printf("  clients:   %llu active\n",
                static_cast<unsigned long long>(status.activeClients));
    std::printf("  jobs:      %llu queued, %llu running, %llu "
                "completed, %llu busy-rejected, %llu quota-rejected\n",
                static_cast<unsigned long long>(status.queuedJobs),
                static_cast<unsigned long long>(status.runningJobs),
                static_cast<unsigned long long>(status.completedJobs),
                static_cast<unsigned long long>(status.busyRejects),
                static_cast<unsigned long long>(status.quotaRejects));
    std::printf("  store:     %llu verdicts, %llu bytes, %llu "
                "evicted, %llu quarantined\n",
                static_cast<unsigned long long>(status.storeEntries),
                static_cast<unsigned long long>(status.storeBytes),
                static_cast<unsigned long long>(status.storeEvictions),
                static_cast<unsigned long long>(
                    status.storeQuarantined));
    std::printf("  audits:    %llu mismatches\n",
                static_cast<unsigned long long>(
                    status.auditMismatches));
    return 0;
}

void
sleepTickMs(unsigned ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
    ::nanosleep(&ts, nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace keq;
    CliOptions options = parseArgs(argc, argv);
    if (options.status || options.stop)
        return runProbe(options);

    service::Server server(options.server);
    std::string error;
    if (!server.start(error)) {
        std::cerr << "keqd: " << error << "\n";
        return 1;
    }
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleDrainSignal);
    std::signal(SIGHUP, handleHupSignal);
    std::cerr << "keqd: listening on "
              << service::endpointToString(options.server.listen) << " ("
              << server.store().size() << " verdicts preloaded)\n";

    // Signal handlers cannot take the shutdown mutex, so the main
    // thread polls every stop source.
    bool drainLogged = false;
    long long drainBudgetMs = 0;
    while (!g_stop && !server.shutdownRequested()) {
        if (g_hup) {
            g_hup = 0;
            server.scrubAndCompactStore();
        }
        if (g_drain) {
            if (!drainLogged) {
                drainLogged = true;
                drainBudgetMs = options.drainTimeoutMs;
                server.beginDrain();
                std::cerr << "keqd: draining (" << options.drainTimeoutMs
                          << " ms budget)\n";
            }
            if (server.drained()) {
                std::cerr << "keqd: drained cleanly\n";
                break;
            }
            if (drainBudgetMs <= 0) {
                std::cerr << "keqd: drain timeout; stopping with jobs "
                             "in flight\n";
                break;
            }
            drainBudgetMs -= 100;
        }
        sleepTickMs(100);
    }
    server.stop();

    service::ServerStats stats = server.stats();
    service::VerdictStore::Stats store = server.store().stats();
    std::cerr << "keqd: stopped — " << stats.completed
              << " jobs completed for " << stats.accepted
              << " connections, " << store.appended
              << " verdicts journaled (" << store.entries
              << " in store, " << store.evictions << " evicted), "
              << stats.busyRejects << " busy rejects, "
              << stats.quotaRejects << " quota rejects, "
              << stats.expiredJobs << " deadline-expired, "
              << stats.auditMismatches << " audit mismatches, "
              << stats.droppedJobs << " jobs dropped\n";
    return 0;
}
