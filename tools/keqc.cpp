/**
 * @file
 * keqc — command-line Translation Validation driver.
 *
 * The analogue of the paper artifact's run-tests.py: reads an LLVM IR
 * module, runs Instruction Selection, generates the verification
 * conditions, and validates every function with KEQ.
 *
 * Usage:
 *   keqc [options] file.ll
 *     --print-mir         print the Virtual x86 produced by ISel
 *     --proof             print the proof log (discharged obligations)
 *     --print-sync        print the synchronization point tables
 *     --merge-stores      enable the store-merging peephole
 *     --fold-ext-load     enable zext(load) folding
 *     --bug=waw|loadwiden reintroduce a Section 5.2 bug
 *     --refinement        check cut-simulation only
 *     --no-positive-form  disable the Section 3 SMT optimization
 *     --crude-liveness    use block-local liveness in the VC generator
 *     --wall-budget=SEC   per-function wall budget (0 = none)
 *     --smt-timeout-ms=N  per-SMT-query timeout in ms (0 = none)
 *     --spec-budget=N     sync-spec size budget in chars (0 = none)
 *     --function=NAME     validate only @NAME
 *     --jobs=N            validate N functions in parallel (0 = #cores)
 *     --solver-cache-mb=N cap the query cache at N MB (LRU; 0 = none)
 *     --no-smt-opt        solve on the reference stack: no rewrite,
 *                         slicing, cache or model reuse, every query
 *                         on the cold lane, in process or in --sandbox
 *                         workers
 *     --deadline-ms=N     hard per-query watchdog deadline (0 = none)
 *     --retries=N         same-rung solver retries before falling
 *                         back to the pristine rung
 *     --solver-memory-mb=N per-query Z3 memory budget (0 = none)
 *     --checkpoint=PATH   journal verdicts to PATH as they are decided
 *     --checkpoint-fsync=record|batch|off
 *                         checkpoint durability (default off: flushed,
 *                         not fsynced)
 *     --resume            load the checkpoint and skip decided functions
 *     --chaos=PCT         inject PCT% solver faults (chaos testing)
 *     --chaos-seed=N      fault schedule seed (default 1)
 *     --sandbox           run solver queries in sandboxed worker
 *                         processes (crash containment + hard rlimits)
 *     --sandbox-workers=N worker pool size (0 = match --jobs)
 *     --worker-memory-mb=N hard RLIMIT_AS per worker (0 = uncapped)
 *     --worker-path=PATH  explicit keq-solver-worker binary
 *     --daemon=ENDPOINTS  submit jobs to a running keq-daemon instead
 *                         of solving locally. ENDPOINTS is a comma-
 *                         separated failover list (unix:PATH,
 *                         tcp:HOST:PORT, tcp:[V6ADDR]:PORT; a bare
 *                         path means unix:). A daemon dying mid-run
 *                         fails over to the next endpoint with
 *                         idempotent job resubmission; when every
 *                         endpoint is down, keqc falls back to local
 *                         solving (with a warning), keeping verdicts
 *                         already decided. Ignored (with a warning)
 *                         under --proof, --checkpoint, --resume and
 *                         --no-smt-opt, which need local solving
 *     --stats             print per-stage solver counters after the run
 *     --stats-json=PATH   dump the full stats/failure taxonomy as JSON
 *     --gen-corpus=N      print an N-function Figure 6 corpus and exit
 *     --corpus-seed=N     corpus generator seed (default 0x6cc2006)
 *
 * SIGINT cancels the run cooperatively: in-flight functions finish with
 * a `cancelled` classification (never journaled), and a later --resume
 * picks up where the run left off.
 *
 * Exit code: number of functions that failed validation (0 = all
 * good); 65 when the input module does not parse or verify; 2 for
 * usage and I/O errors; 64 (EX_USAGE) for a malformed --daemon
 * endpoint list (the diagnostic names the offending spec).
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/service/client.h"
#include "src/service/endpoint.h"
#include "src/isel/isel.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/support/cancellation.h"
#include "src/support/journal.h"
#include "src/vcgen/vcgen.h"

namespace {

/** SIGINT target; installed only for the validation phase. */
keq::support::CancellationToken g_cancel;

extern "C" void
handleSigint(int)
{
    // CancellationToken::cancel is one lock-free atomic store, which is
    // async-signal-safe.
    g_cancel.cancel();
}

struct CliOptions
{
    std::string path;
    std::string only_function;
    std::string stats_json;
    std::string daemon_socket; ///< raw --daemon value (for messages)
    std::vector<keq::service::Endpoint> daemon_endpoints;
    bool print_mir = false;
    bool print_sync = false;
    bool print_stats = false;
    size_t gen_corpus = 0;
    uint64_t corpus_seed = 0x6cc2006;
    keq::driver::PipelineOptions pipeline;
    keq::driver::ExecutionOptions exec;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " [options] file.ll\n"
              << "  --print-mir --print-sync --merge-stores "
                 "--fold-ext-load\n"
              << "  --bug=waw|loadwiden --refinement "
                 "--no-positive-form --crude-liveness\n"
              << "  --wall-budget=SEC --spec-budget=N "
                 "--function=NAME\n"
              << "  --smt-timeout-ms=N --jobs=N --solver-cache-mb=N\n"
              << "  --no-smt-opt --stats\n"
              << "  --deadline-ms=N --retries=N --solver-memory-mb=N\n"
              << "  --checkpoint=PATH --checkpoint-fsync=record|batch|off "
                 "--resume\n"
              << "  --chaos=PCT --chaos-seed=N\n"
              << "  --sandbox --sandbox-workers=N --worker-memory-mb=N "
                 "--worker-path=PATH\n"
              << "  --daemon=ENDPOINTS (comma-separated failover "
                 "list: unix:PATH,tcp:HOST:PORT)\n"
              << "  --stats-json=PATH --gen-corpus=N --corpus-seed=N\n";
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
        // Malformed numeric values (--jobs=abc) exit with usage instead
        // of an uncaught std::invalid_argument.
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
        if (arg == "--proof") {
            options.pipeline.checker.collectProof = true;
        } else if (arg == "--print-mir") {
            options.print_mir = true;
        } else if (arg == "--print-sync") {
            options.print_sync = true;
        } else if (arg == "--merge-stores") {
            options.pipeline.isel.mergeStores = true;
        } else if (arg == "--fold-ext-load") {
            options.pipeline.isel.foldExtLoad = true;
        } else if (arg.rfind("--bug=", 0) == 0) {
            std::string bug = value_of("--bug=");
            if (bug == "waw") {
                options.pipeline.isel.bug =
                    keq::isel::Bug::StoreMergeWAW;
                options.pipeline.isel.mergeStores = true;
            } else if (bug == "loadwiden") {
                options.pipeline.isel.bug =
                    keq::isel::Bug::LoadWidening;
                options.pipeline.isel.foldExtLoad = true;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--refinement") {
            options.pipeline.checker.refinementOnly = true;
        } else if (arg == "--no-positive-form") {
            options.pipeline.checker.positiveFormOpt = false;
        } else if (arg == "--crude-liveness") {
            options.pipeline.vc.precision =
                keq::vcgen::LivenessPrecision::BlockLocal;
        } else if (arg.rfind("--wall-budget=", 0) == 0) {
            options.pipeline.checker.wallBudgetSeconds =
                number_of("--wall-budget=");
        } else if (arg.rfind("--smt-timeout-ms=", 0) == 0) {
            options.pipeline.checker.solverTimeoutMs =
                static_cast<unsigned>(number_of("--smt-timeout-ms="));
        } else if (arg.rfind("--spec-budget=", 0) == 0) {
            options.pipeline.specSizeBudget =
                static_cast<size_t>(number_of("--spec-budget="));
        } else if (arg.rfind("--function=", 0) == 0) {
            options.only_function = "@" + value_of("--function=");
        } else if (arg.rfind("--jobs=", 0) == 0) {
            options.exec.jobs =
                static_cast<unsigned>(number_of("--jobs="));
        } else if (arg.rfind("--solver-cache-mb=", 0) == 0) {
            options.exec.cacheMemoryMb =
                static_cast<size_t>(number_of("--solver-cache-mb="));
        } else if (arg.rfind("--deadline-ms=", 0) == 0) {
            options.exec.deadlineMs =
                static_cast<unsigned>(number_of("--deadline-ms="));
        } else if (arg.rfind("--retries=", 0) == 0) {
            options.exec.solverRetries =
                static_cast<unsigned>(number_of("--retries="));
        } else if (arg.rfind("--solver-memory-mb=", 0) == 0) {
            options.exec.solverMemoryMb =
                static_cast<unsigned>(number_of("--solver-memory-mb="));
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            options.exec.checkpointPath = value_of("--checkpoint=");
        } else if (arg.rfind("--checkpoint-fsync=", 0) == 0) {
            if (!keq::support::fsyncPolicyFromName(
                    value_of("--checkpoint-fsync=").c_str(),
                    options.exec.checkpointFsync)) {
                usage(argv[0]);
            }
        } else if (arg == "--sandbox") {
            options.exec.sandbox = true;
        } else if (arg.rfind("--sandbox-workers=", 0) == 0) {
            options.exec.sandboxWorkers =
                static_cast<unsigned>(number_of("--sandbox-workers="));
        } else if (arg.rfind("--worker-memory-mb=", 0) == 0) {
            options.exec.workerMemoryMb =
                static_cast<unsigned>(number_of("--worker-memory-mb="));
        } else if (arg.rfind("--worker-path=", 0) == 0) {
            options.exec.workerPath = value_of("--worker-path=");
        } else if (arg.rfind("--daemon=", 0) == 0) {
            options.daemon_socket = value_of("--daemon=");
            std::string endpointError;
            if (!keq::service::parseEndpointList(
                    options.daemon_socket, options.daemon_endpoints,
                    endpointError)) {
                std::cerr << "keqc: --daemon: " << endpointError
                          << "\n";
                std::exit(64); // BSD sysexits EX_USAGE
            }
        } else if (arg.rfind("--stats-json=", 0) == 0) {
            options.stats_json = value_of("--stats-json=");
        } else if (arg == "--resume") {
            options.exec.resume = true;
        } else if (arg.rfind("--chaos=", 0) == 0) {
            unsigned pct =
                static_cast<unsigned>(number_of("--chaos="));
            if (pct > 100)
                usage(argv[0]);
            // Spread the budget over the fault classes; whatever the
            // integer division drops lands on spurious Unknowns.
            keq::smt::FaultPlan &plan = options.exec.faults;
            plan.crashPercent = pct / 4;
            plan.timeoutPercent = pct / 4;
            plan.memoryPercent = pct / 4;
            plan.unknownPercent = pct - 3 * (pct / 4);
            if (plan.seed == 0)
                plan.seed = 1;
        } else if (arg.rfind("--chaos-seed=", 0) == 0) {
            options.exec.faults.seed = static_cast<uint64_t>(
                number_of("--chaos-seed="));
        } else if (arg == "--no-smt-opt") {
            options.exec.optimizeQueries = false;
        } else if (arg == "--stats") {
            options.print_stats = true;
        } else if (arg.rfind("--gen-corpus=", 0) == 0) {
            options.gen_corpus =
                static_cast<size_t>(number_of("--gen-corpus="));
            if (options.gen_corpus == 0)
                usage(argv[0]);
        } else if (arg.rfind("--corpus-seed=", 0) == 0) {
            options.corpus_seed = static_cast<uint64_t>(
                number_of("--corpus-seed="));
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
        } else if (options.path.empty()) {
            options.path = arg;
        } else {
            usage(argv[0]);
        }
    }
    if (options.path.empty() && options.gen_corpus == 0)
        usage(argv[0]);
    return options;
}

/**
 * --stats-json: machine-readable dump of the run — outcome counts, the
 * FailureKind histogram over verdicts, the full SolverStats block
 * (aggregated over functions exactly like --stats), and the cache
 * counters. Keys are snake_case; a key leaves only with its counter.
 */
bool
writeStatsJson(const std::string &path,
               const keq::driver::ModuleReport &report)
{
    using namespace keq;
    smt::SolverStats stats;
    for (const driver::FunctionReport &fn : report.functions)
        stats += fn.verdict.stats.solverStats;

    constexpr FailureKind kKinds[] = {
        FailureKind::None,
        FailureKind::Timeout,
        FailureKind::MemoryBudget,
        FailureKind::SolverUnknown,
        FailureKind::SolverCrash,
        FailureKind::Cancelled,
        FailureKind::WorkerKilled,
        FailureKind::WorkerOom,
    };
    uint64_t failure_counts[std::size(kKinds)] = {};
    for (const driver::FunctionReport &fn : report.functions) {
        for (size_t i = 0; i < std::size(kKinds); ++i) {
            if (fn.verdict.failure == kKinds[i])
                ++failure_counts[i];
        }
    }

    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    auto count = [&report](driver::Outcome outcome) {
        return static_cast<unsigned long long>(
            report.countOutcome(outcome));
    };
    out << "{\n";
    out << "  \"functions\": " << report.functions.size() << ",\n";
    out << "  \"outcomes\": {\n"
        << "    \"succeeded\": " << count(driver::Outcome::Succeeded)
        << ",\n"
        << "    \"timeout\": " << count(driver::Outcome::Timeout)
        << ",\n"
        << "    \"out_of_memory\": "
        << count(driver::Outcome::OutOfMemory) << ",\n"
        << "    \"other\": " << count(driver::Outcome::Other) << ",\n"
        << "    \"unsupported\": "
        << count(driver::Outcome::Unsupported) << "\n  },\n";
    out << "  \"failures\": {\n";
    for (size_t i = 0; i < std::size(kKinds); ++i) {
        out << "    \"" << failureKindName(kKinds[i])
            << "\": " << failure_counts[i]
            << (i + 1 < std::size(kKinds) ? ",\n" : "\n");
    }
    out << "  },\n";
    out << "  \"solver\": {\n";
    const char *separator = "";
    smt::forEachCounter(
        [&](smt::CounterInfo info, const auto &value) {
            out << separator << "    \"" << info.key << "\": " << value;
            separator = ",\n";
        },
        stats);
    out << "\n  },\n";
    out << "  \"cache\": {\n"
        << "    \"hits\": " << report.cacheStats.hits << ",\n"
        << "    \"misses\": " << report.cacheStats.misses << ",\n"
        << "    \"model_hits\": " << report.cacheStats.modelHits
        << ",\n"
        << "    \"evictions\": " << report.cacheStats.evictions << ",\n"
        << "    \"entries\": " << report.cacheStats.entries
        << "\n  },\n";
    out << "  \"resumed_functions\": " << report.resumedFunctions
        << ",\n";
    out << "  \"dropped_checkpoint_records\": "
        << report.droppedCheckpointRecords << "\n";
    out << "}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace keq;
    CliOptions options = parseArgs(argc, argv);

    if (options.gen_corpus > 0) {
        driver::CorpusOptions copts;
        copts.seed = options.corpus_seed;
        copts.functionCount = options.gen_corpus;
        std::cout << driver::generateCorpusSource(copts);
        return 0;
    }

    std::ifstream file(options.path);
    if (!file) {
        std::cerr << "keqc: cannot open " << options.path << "\n";
        return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();

    // Unparsable or ill-formed input exits with the dedicated code 65
    // (EX_DATAERR), so drivers and the fuzz harness can distinguish
    // "your .ll is bad" from usage errors (2) and failed validations
    // (the failure count).
    llvmir::Module module;
    try {
        module = llvmir::parseModule(buffer.str());
        llvmir::verifyModuleOrThrow(module);
    } catch (const support::Error &error) {
        std::cerr << "keqc: " << options.path << ": " << error.what()
                  << "\n";
        return 65;
    }

    if (options.print_mir || options.print_sync) {
        for (const llvmir::Function &fn : module.functions) {
            if (fn.isDeclaration())
                continue;
            if (!options.only_function.empty() &&
                fn.name != options.only_function) {
                continue;
            }
            try {
                isel::FunctionHints hints;
                vx86::MFunction mfn = isel::lowerFunction(
                    module, fn, options.pipeline.isel, hints);
                if (options.print_mir)
                    std::cout << mfn.toString() << "\n";
                if (options.print_sync) {
                    vcgen::VcResult vc = vcgen::generateSyncPoints(
                        fn, mfn, hints, options.pipeline.vc);
                    std::cout << vc.points.render() << "\n";
                    for (const std::string &warning : vc.warnings)
                        std::cout << "  warning: " << warning << "\n";
                }
            } catch (const support::Error &error) {
                std::cout << fn.name << ": unsupported ("
                          << error.what() << ")\n";
            }
        }
    }

    // One Pipeline for the whole module: the solver cache warms up
    // across functions. With --jobs=N functions validate concurrently;
    // reports always come back in module order.
    g_cancel = support::CancellationToken::create();
    options.exec.cancel = g_cancel;
    std::signal(SIGINT, handleSigint);
    driver::ModuleReport report;

    // --daemon: ship the jobs to a warm keq-daemon instead of solving
    // here. Verdicts are required to be canonically identical either
    // way, so degradation (unreachable daemon, daemon death mid-run) is
    // always safe: warn once, keep whatever the daemon decided, and
    // finish the rest with the local pipeline.
    if (!options.daemon_socket.empty() &&
        options.pipeline.checker.collectProof) {
        std::cerr << "keqc: --proof requires local solving; "
                     "ignoring --daemon\n";
        options.daemon_socket.clear();
    }
    if (!options.daemon_socket.empty() &&
        (!options.exec.checkpointPath.empty() || options.exec.resume)) {
        std::cerr << "keqc: --checkpoint/--resume journal locally; "
                     "ignoring --daemon\n";
        options.daemon_socket.clear();
    }
    // The daemon always solves on the optimized stack.
    if (!options.daemon_socket.empty() && !options.exec.optimizeQueries) {
        std::cerr << "keqc: --no-smt-opt runs the reference stack "
                     "locally; ignoring --daemon\n";
        options.daemon_socket.clear();
    }
    bool daemonHandled = false;
    std::vector<driver::FunctionReport> daemonReports;
    std::vector<bool> daemonDecided;
    if (!options.daemon_socket.empty()) {
        std::vector<std::string> names;
        for (const llvmir::Function &fn : module.functions) {
            if (fn.isDeclaration())
                continue;
            if (!options.only_function.empty() &&
                fn.name != options.only_function)
                continue;
            names.push_back(fn.name);
        }
        service::DaemonClientOptions copts;
        copts.endpoints = options.daemon_endpoints;
        service::DaemonClient client(copts);
        std::string error;
        // Failover is meant to be invisible in the *output* (verdicts
        // splice identically) but never silent in operation: say on
        // stderr when the run survived a daemon death.
        auto warnFailovers = [&client] {
            if (client.failovers() > 0)
                std::cerr << "keqc: daemon failed over "
                          << client.failovers() << " time(s) ("
                          << client.resubmittedJobs()
                          << " in-flight jobs resubmitted; decided "
                             "verdicts kept)\n";
        };
        if (!client.connect(error)) {
            std::cerr << "keqc: daemon unreachable (" << error
                      << "); falling back to local validation\n";
            daemonDecided.clear();
        } else if (client.validateFunctions(
                       buffer.str(), names, options.pipeline,
                       daemonReports, daemonDecided, error)) {
            warnFailovers();
            report.functions = std::move(daemonReports);
            daemonHandled = true;
        } else if (client.busyBreakerTripped()) {
            warnFailovers();
            std::cerr << "keqc: daemon busy circuit breaker tripped ("
                      << client.busyRetries() << " Busy replies): "
                      << error
                      << "; validating remaining functions locally\n";
        } else {
            warnFailovers();
            std::cerr << "keqc: daemon connection lost ["
                      << failureKindName(client.failure()) << "]: "
                      << error
                      << "; validating remaining functions locally\n";
        }
    }

    bool anyDaemonVerdicts = daemonHandled;
    for (size_t i = 0; !anyDaemonVerdicts && i < daemonDecided.size();
         ++i)
        anyDaemonVerdicts = daemonDecided[i];

    if (!daemonHandled) {
        driver::Pipeline pipeline(options.pipeline, options.exec);
        try {
            if (anyDaemonVerdicts) {
                // Partial daemon run: splice its verdicts, recompute
                // only what is missing (module order is preserved —
                // the submit order matched this very walk).
                size_t index = 0;
                for (const llvmir::Function &fn : module.functions) {
                    if (fn.isDeclaration())
                        continue;
                    if (!options.only_function.empty() &&
                        fn.name != options.only_function)
                        continue;
                    if (daemonDecided[index])
                        report.functions.push_back(
                            std::move(daemonReports[index]));
                    else
                        report.functions.push_back(
                            pipeline.validateFunction(module, fn));
                    ++index;
                }
            } else if (options.only_function.empty()) {
                report = pipeline.runParallel(module);
            } else {
                for (const llvmir::Function &fn : module.functions) {
                    if (!fn.isDeclaration() &&
                        fn.name == options.only_function)
                        report.functions.push_back(
                            pipeline.validateFunction(module, fn));
                }
            }
        } catch (const support::Error &error) {
            // Checkpoint mismatch or journal I/O failure.
            std::cerr << "keqc: " << error.what() << "\n";
            return 2;
        }
    }
    if (anyDaemonVerdicts) {
        // The daemon owns the real cache; fold the per-function solver
        // counters so the cache summary (and --stats-json) still mean
        // something — exactly like the cacheless aggregation path.
        for (const driver::FunctionReport &fn : report.functions) {
            report.cacheStats.hits +=
                fn.verdict.stats.solverStats.cacheHits;
            report.cacheStats.misses +=
                fn.verdict.stats.solverStats.cacheMisses;
        }
    }
    std::signal(SIGINT, SIG_DFL);

    int failures = 0;
    size_t validated = 0;
    for (const driver::FunctionReport &fn_report : report.functions) {
        std::cout << fn_report.function << ": "
                  << driver::outcomeName(fn_report.outcome);
        if (fn_report.outcome == driver::Outcome::Succeeded) {
            std::cout << " ("
                      << checker::verdictKindName(
                             fn_report.verdict.kind)
                      << ", " << fn_report.verdict.stats.solverQueries
                      << " queries, " << fn_report.seconds << " s)";
            ++validated;
        } else {
            if (fn_report.verdict.failure != FailureKind::None)
                std::cout << " [" <<
                    failureKindName(fn_report.verdict.failure) << "]";
            if (!fn_report.detail.empty())
                std::cout << "\n  " << fn_report.detail;
        }
        std::cout << "\n";
        if (options.pipeline.checker.collectProof)
            std::cout << fn_report.verdict.renderProof();
        if (fn_report.outcome != driver::Outcome::Succeeded &&
            fn_report.outcome != driver::Outcome::Unsupported) {
            ++failures;
        }
    }
    std::cout << validated << "/" << report.functions.size()
              << " functions validated\n";
    if (report.resumedFunctions > 0) {
        std::cout << report.resumedFunctions
                  << " verdicts restored from checkpoint";
        if (report.droppedCheckpointRecords > 0)
            std::cout << " (" << report.droppedCheckpointRecords
                      << " torn records dropped)";
        std::cout << "\n";
    }
    if (g_cancel.cancelled()) {
        std::cout << "interrupted: undecided functions were not "
                     "journaled; rerun with --resume to finish\n";
    }
    if (options.exec.optimizeQueries && options.only_function.empty()) {
        const smt::CacheStats &cache = report.cacheStats;
        std::printf("solver cache: %llu key hits + %llu model hits / "
                    "%llu lookups (%.1f%% avoided the solver), "
                    "%llu evictions\n",
                    static_cast<unsigned long long>(cache.hits),
                    static_cast<unsigned long long>(cache.modelHits),
                    static_cast<unsigned long long>(cache.hits +
                                                    cache.misses),
                    100.0 * cache.hitRate(),
                    static_cast<unsigned long long>(cache.evictions));
    }
    if (options.print_stats) {
        // Aggregate per-function deltas so the single-function path
        // reports the same counters as a whole-module run.
        smt::SolverStats stats;
        for (const driver::FunctionReport &fn_report : report.functions)
            stats += fn_report.verdict.stats.solverStats;
        auto u = [](uint64_t v) {
            return static_cast<unsigned long long>(v);
        };
        std::printf("solver stack: %llu queries (%llu sat, %llu unsat, "
                    "%llu unknown), %.3f s in backend\n",
                    u(stats.queries), u(stats.sat), u(stats.unsat),
                    u(stats.unknown), stats.totalSeconds);
        std::printf("  rewrite:     %llu resolved, %llu rule firings\n",
                    u(stats.rewriteResolved),
                    u(stats.rewriteApplications));
        std::printf("  slice:       %llu resolved, %llu assertions "
                    "pruned\n",
                    u(stats.sliceResolved), u(stats.slicedAssertions));
        std::printf("  cache:       %llu hits, %llu misses\n",
                    u(stats.cacheHits), u(stats.cacheMisses));
        std::printf("  incremental: %llu assertions reused over %llu "
                    "warm checks, %llu cold, %llu fallbacks\n",
                    u(stats.incrementalReused),
                    u(stats.incrementalSolves), u(stats.coldSolves),
                    u(stats.incrementalFallbacks));
        std::printf("  guard:       %llu watchdog interrupts, %llu "
                    "retries, %llu escalations (%llu resolved by a "
                    "fallback rung)\n",
                    u(stats.watchdogInterrupts), u(stats.guardedRetries),
                    u(stats.guardedEscalations),
                    u(stats.escalatedResolved));
        std::printf("  faults:      %llu solver crashes absorbed, %llu "
                    "injected\n",
                    u(stats.solverCrashes), u(stats.faultsInjected));
        std::printf("  sandbox:     %llu worker crashes, %llu restarts, "
                    "%llu heartbeat timeouts, %llu/%llu wire bytes "
                    "out/in\n",
                    u(stats.workerCrashes), u(stats.workerRestarts),
                    u(stats.heartbeatTimeouts), u(stats.wireBytesSent),
                    u(stats.wireBytesReceived));
    }
    if (!options.stats_json.empty() &&
        !writeStatsJson(options.stats_json, report)) {
        std::cerr << "keqc: cannot write " << options.stats_json << "\n";
        return 2;
    }
    return failures;
}
