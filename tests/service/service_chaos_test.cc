/** @file Daemon chaos: a real keq-daemon process (KEQ_DAEMON_BIN) is
 *  SIGKILLed mid-run. The contract under fire: clients classify the
 *  loss and degrade to local solving with verdicts identical to an
 *  undisturbed run, nothing hangs, and a restarted daemon serves the
 *  verdicts its journal survived with. The real keqc binary
 *  (KEQ_KEQC_BIN) over `--daemon=unix:...` prints what a local run
 *  prints, also when its daemon is SIGKILLed mid-run, and
 *  `keq-daemon --status` probes a running daemon. */

#include <gtest/gtest.h>

#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/service/client.h"
#include "src/service/socket.h"

namespace keq::service {
namespace {

std::string
uniquePath(const std::string &stem, const std::string &ext)
{
    return (std::filesystem::temp_directory_path() /
            ("keqd-chaos-" + stem + "-" + std::to_string(::getpid()) +
             ext))
        .string();
}

/** Spawns the real daemon binary; returns its pid (or -1). */
pid_t
spawnDaemon(const std::vector<std::string> &args)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    std::vector<const char *> argv;
    argv.push_back(KEQ_DAEMON_BIN);
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    ::execv(KEQ_DAEMON_BIN, const_cast<char *const *>(argv.data()));
    _exit(127);
}

/** Waits until the daemon accepts (handshake works), up to 10 s. */
bool
waitForDaemon(const std::string &socket)
{
    for (int attempt = 0; attempt < 200; ++attempt) {
        DaemonClientOptions options;
        options.endpoints = unixEndpoint(socket);
        options.connectTimeoutMs = 50;
        DaemonClient probe(options);
        std::string error;
        if (probe.connect(error))
            return true;
        ::usleep(50 * 1000);
    }
    return false;
}

void
reap(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
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
moduleSource(size_t functions)
{
    driver::CorpusOptions options;
    options.seed = 0xc4a05;
    options.functionCount = functions;
    return driver::generateCorpusSource(options);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Writes a @p functions-function corpus module; returns its path. */
std::string
writeModule(const std::string &tag, size_t functions)
{
    std::string path = uniquePath(tag, ".ll");
    std::ofstream(path, std::ios::trunc) << moduleSource(functions);
    return path;
}

/** Spawns @p bin with stdout/stderr redirected to files. */
pid_t
spawnProcess(const char *bin, const std::vector<std::string> &args,
             const std::string &stdoutPath,
             const std::string &stderrPath)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    int outFd = ::open(stdoutPath.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int errFd = ::open(stderrPath.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (outFd < 0 || errFd < 0)
        _exit(126);
    ::dup2(outFd, 1);
    ::dup2(errFd, 2);
    std::vector<const char *> argv;
    argv.push_back(bin);
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    ::execv(bin, const_cast<char *const *>(argv.data()));
    _exit(127);
}

/** Waits for @p pid; returns its exit code (or -signal). */
int
waitExit(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return -WTERMSIG(status);
    return -1000;
}

/** Runs @p bin to completion; returns its exit code and output. */
int
runTool(const char *bin, const std::vector<std::string> &args,
        const std::string &tag, std::string &stdoutText,
        std::string &stderrText)
{
    std::string outPath = uniquePath(tag, ".out");
    std::string errPath = uniquePath(tag, ".err");
    pid_t pid = spawnProcess(bin, args, outPath, errPath);
    EXPECT_GT(pid, 0);
    int code = waitExit(pid);
    stdoutText = slurp(outPath);
    stderrText = slurp(errPath);
    std::remove(outPath.c_str());
    std::remove(errPath.c_str());
    return code;
}

/**
 * Strips the run-dependent pieces of keqc stdout: wall-clock seconds
 * in the per-function parentheticals, query counts and the
 * solver-cache summary (the daemon owns a shared warm cache, a local
 * run a cold private one; memoized queries are never issued).
 * Everything else — function order, outcome names, verdict kinds, the
 * N/M summary line — must be byte-identical.
 */
std::string
normalizedSummary(const std::string &stdoutText)
{
    std::string text = std::regex_replace(
        stdoutText, std::regex(", [0-9.e+-]+ s\\)"), ", T s)");
    text = std::regex_replace(
        text, std::regex(", [0-9]+ queries"), ", N queries");
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("solver cache:", 0) == 0)
            continue;
        out << line << "\n";
    }
    return out.str();
}

/** Extracts one brace-balanced section ("outcomes", "failures") from
 *  the --stats-json dump. */
std::string
jsonSection(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\"");
    if (at == std::string::npos)
        return "<missing " + key + ">";
    size_t open = json.find('{', at);
    size_t depth = 0;
    for (size_t i = open; i < json.size(); ++i) {
        if (json[i] == '{')
            ++depth;
        else if (json[i] == '}' && --depth == 0)
            return json.substr(at, i + 1 - at);
    }
    return "<torn " + key + ">";
}

TEST(ServiceChaosTest, SigkillMidRunDegradesWithoutHanging)
{
    std::string socket = uniquePath("kill", ".sock");
    std::string source = moduleSource(8);
    std::vector<std::string> names = definedFunctions(source);
    driver::PipelineOptions poptions;

    pid_t daemon = spawnDaemon({"--socket=" + socket, "--jobs=1"});
    ASSERT_GT(daemon, 0);
    ASSERT_TRUE(waitForDaemon(socket)) << "daemon never came up";

    DaemonClientOptions copts;
    copts.endpoints = unixEndpoint(socket);
    // A dead daemon must surface fast — this bounds the whole test.
    copts.verdictTimeoutMs = 10000;
    DaemonClient client(copts);
    std::string error;
    ASSERT_TRUE(client.connect(error)) << error;

    // The killer fires while jobs are in flight (jobs=1 serializes the
    // daemon side, so 8 functions give it a wide window).
    std::thread killer([&] {
        ::usleep(60 * 1000);
        ::kill(daemon, SIGKILL);
    });

    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    bool complete = client.validateFunctions(source, names, poptions,
                                             reports, decided, error);
    killer.join();
    reap(daemon);
    std::remove(socket.c_str());

    // Race-tolerant: the daemon may have finished everything before
    // the kill landed. What must NEVER happen is a hang (the timeout
    // above bounds that) or an unclassified failure.
    if (!complete) {
        EXPECT_NE(client.failure(), FailureKind::None);
        EXPECT_FALSE(error.empty());
    }

    // Degradation path: splice daemon verdicts with local recomputes;
    // the merged summary must match an undisturbed local run.
    driver::Pipeline local(poptions);
    llvmir::Module module = llvmir::parseModule(source);
    driver::ModuleReport merged;
    size_t index = 0;
    size_t recomputed = 0;
    for (const llvmir::Function &fn : module.functions) {
        if (fn.isDeclaration())
            continue;
        if (index < decided.size() && decided[index]) {
            merged.functions.push_back(reports[index]);
        } else {
            merged.functions.push_back(
                local.validateFunction(module, fn));
            ++recomputed;
        }
        ++index;
    }
    if (!complete)
        EXPECT_GT(recomputed, 0u);

    driver::Pipeline reference(poptions);
    EXPECT_EQ(merged.canonicalSummary(),
              reference.run(module).canonicalSummary());
}

TEST(ServiceChaosTest, RestartedDaemonServesJournaledVerdicts)
{
    std::string socket = uniquePath("restart", ".sock");
    std::string journal = uniquePath("restart", ".journal");
    std::remove(journal.c_str());
    std::string source = moduleSource(5);
    std::vector<std::string> names = definedFunctions(source);
    driver::PipelineOptions poptions;

    // First life: decide everything, journaling each fresh verdict.
    pid_t first = spawnDaemon({"--socket=" + socket,
                               "--verdict-journal=" + journal,
                               "--journal-fsync=record"});
    ASSERT_GT(first, 0);
    ASSERT_TRUE(waitForDaemon(socket));
    std::string firstSummary;
    {
        DaemonClientOptions copts;
        copts.endpoints = unixEndpoint(socket);
        DaemonClient client(copts);
        std::string error;
        ASSERT_TRUE(client.connect(error)) << error;
        std::vector<driver::FunctionReport> reports;
        std::vector<bool> decided;
        ASSERT_TRUE(client.validateFunctions(source, names, poptions,
                                             reports, decided, error))
            << error;
        driver::ModuleReport report;
        report.functions = reports;
        firstSummary = report.canonicalSummary();
    }
    // SIGKILL: no flush, no unlink; only the journal's own per-record
    // durability (fsync=record) protects the verdicts.
    ::kill(first, SIGKILL);
    reap(first);
    std::remove(socket.c_str());
    ASSERT_TRUE(std::filesystem::exists(journal));

    // Second life: same journal, fresh process and socket.
    pid_t second = spawnDaemon({"--socket=" + socket,
                                "--verdict-journal=" + journal});
    ASSERT_GT(second, 0);
    ASSERT_TRUE(waitForDaemon(socket));
    {
        DaemonClientOptions copts;
        copts.endpoints = unixEndpoint(socket);
        DaemonClient client(copts);
        std::string error;
        ASSERT_TRUE(client.connect(error)) << error;
        std::vector<driver::FunctionReport> reports;
        std::vector<bool> decided;
        ASSERT_TRUE(client.validateFunctions(source, names, poptions,
                                             reports, decided, error))
            << error;
        driver::ModuleReport report;
        report.functions = reports;
        EXPECT_EQ(report.canonicalSummary(), firstSummary);

        // Every cache-stage query must be served from the preloaded
        // store: the restarted daemon solved nothing new.
        uint64_t hits = 0;
        uint64_t misses = 0;
        for (const driver::FunctionReport &fn : reports) {
            hits += fn.verdict.stats.solverStats.cacheHits;
            misses += fn.verdict.stats.solverStats.cacheMisses;
        }
        EXPECT_GT(hits, 0u);
        EXPECT_EQ(misses, 0u);
    }
    ::kill(second, SIGTERM);
    reap(second);
    std::remove(socket.c_str());
    std::remove(journal.c_str());
}

TEST(ServiceChaosTest, StaleSocketFromKilledDaemonIsReclaimed)
{
    std::string socket = uniquePath("stale", ".sock");
    pid_t first = spawnDaemon({"--socket=" + socket});
    ASSERT_GT(first, 0);
    ASSERT_TRUE(waitForDaemon(socket));
    ::kill(first, SIGKILL);
    reap(first);
    // The socket file is left behind by SIGKILL...
    ASSERT_TRUE(std::filesystem::exists(socket));

    // ...and a fresh daemon detects it is dead, reclaims the path, and
    // serves clients.
    pid_t second = spawnDaemon({"--socket=" + socket});
    ASSERT_GT(second, 0);
    EXPECT_TRUE(waitForDaemon(socket))
        << "restarted daemon failed to reclaim the stale socket";
    ::kill(second, SIGTERM);
    reap(second);
    std::remove(socket.c_str());
}

/**
 * The real-binary acceptance gate: keqc over `--daemon=unix:...` must
 * be indistinguishable (verdicts, outcome counts, exit code) from keqc
 * solving locally.
 */
TEST(ServiceChaosTest, KeqcOverDaemonMatchesLocalRun)
{
    std::string module = writeModule("parity", 6);
    std::string socket = uniquePath("parity", ".sock");
    pid_t daemon = spawnDaemon({"--socket=unix:" + socket});
    ASSERT_GT(daemon, 0);
    ASSERT_TRUE(waitForDaemon(socket)) << "daemon never came up";

    std::string localJson = uniquePath("parity-local", ".json");
    std::string daemonJson = uniquePath("parity-daemon", ".json");
    std::string localOut, daemonOut, err;
    int localCode = runTool(KEQ_KEQC_BIN,
                            {"--stats-json=" + localJson, module},
                            "local", localOut, err);
    int daemonCode =
        runTool(KEQ_KEQC_BIN,
                {"--daemon=unix:" + socket, "--stats-json=" + daemonJson,
                 module},
                "daemon", daemonOut, err);
    ::kill(daemon, SIGKILL);
    reap(daemon);

    ASSERT_EQ(localCode, 0) << localOut;
    EXPECT_EQ(daemonCode, localCode);
    // Guard against trivially-equal failure modes: the runs must have
    // actually validated something, and through the daemon.
    ASSERT_NE(localOut.find("functions validated"), std::string::npos)
        << localOut;
    EXPECT_EQ(err.find("falling back"), std::string::npos) << err;
    EXPECT_EQ(normalizedSummary(daemonOut), normalizedSummary(localOut))
        << "daemon run diverged from local; stderr:\n" << err;
    std::string localStats = slurp(localJson);
    std::string daemonStats = slurp(daemonJson);
    EXPECT_EQ(jsonSection(daemonStats, "outcomes"),
              jsonSection(localStats, "outcomes"));
    EXPECT_EQ(jsonSection(daemonStats, "failures"),
              jsonSection(localStats, "failures"));

    for (const std::string &path : {module, socket, localJson, daemonJson})
        std::remove(path.c_str());
}

/**
 * SIGKILL keqc's daemon mid-run: keqc keeps the verdicts the daemon
 * decided, validates the rest locally, and its stdout and exit code
 * are those of an undisturbed local run; the degradation shows only
 * on stderr. Race-tolerant: the daemon may finish before the kill
 * lands, in which case this run proves the undisturbed path again.
 */
TEST(ServiceChaosTest, KeqcFinishesLocallyWhenItsDaemonIsKilled)
{
    // 120 functions on one daemon worker take a few hundred ms, so the
    // kill usually lands mid-run.
    std::string module = writeModule("killed", 120);
    std::string socket = uniquePath("killed", ".sock");
    pid_t daemon = spawnDaemon({"--socket=" + socket, "--jobs=1"});
    ASSERT_GT(daemon, 0);
    ASSERT_TRUE(waitForDaemon(socket)) << "daemon never came up";

    std::string json = uniquePath("killed", ".json");
    std::string outPath = uniquePath("killed", ".out");
    std::string errPath = uniquePath("killed", ".err");
    pid_t keqc = spawnProcess(
        KEQ_KEQC_BIN,
        {"--daemon=" + socket, "--stats-json=" + json, module}, outPath,
        errPath);
    ASSERT_GT(keqc, 0);
    std::thread killer([&] {
        ::usleep(120 * 1000);
        ::kill(daemon, SIGKILL);
    });
    int code = waitExit(keqc);
    killer.join();
    reap(daemon);
    std::string stdoutText = slurp(outPath);
    std::string stderrText = slurp(errPath);

    std::string localOut, localErr;
    std::string localJson = uniquePath("killed-local", ".json");
    int localCode = runTool(KEQ_KEQC_BIN,
                            {"--stats-json=" + localJson, module},
                            "killed-local", localOut, localErr);

    ASSERT_EQ(localCode, 0) << localOut;
    ASSERT_NE(localOut.find("functions validated"), std::string::npos)
        << localOut;
    EXPECT_EQ(code, localCode) << stderrText;
    EXPECT_EQ(normalizedSummary(stdoutText), normalizedSummary(localOut))
        << "degraded run diverged from local; stderr:\n"
        << stderrText;
    EXPECT_EQ(jsonSection(slurp(json), "outcomes"),
              jsonSection(slurp(localJson), "outcomes"));
    EXPECT_EQ(stdoutText.find("daemon"), std::string::npos)
        << "degradation leaked onto stdout:\n" << stdoutText;

    for (const std::string &path :
         {module, socket, json, localJson, outPath, errPath})
        std::remove(path.c_str());
}

/** keq-daemon --status probes a running daemon over its socket and
 *  reports its pid and counters. */
TEST(ServiceChaosTest, StatusProbeReportsTheRunningDaemon)
{
    std::string socket = uniquePath("status", ".sock");
    pid_t daemon = spawnDaemon({"--socket=" + socket});
    ASSERT_GT(daemon, 0);
    ASSERT_TRUE(waitForDaemon(socket)) << "daemon never came up";

    std::string out, err;
    int code = runTool(KEQ_DAEMON_BIN, {"--status", "--socket=" + socket},
                       "status", out, err);
    ::kill(daemon, SIGKILL);
    reap(daemon);

    EXPECT_EQ(code, 0) << err;
    EXPECT_NE(out.find("daemon pid " + std::to_string(daemon) +
                       " on unix:" + socket),
              std::string::npos)
        << out;
    // The probe's own connection is not an active client.
    EXPECT_NE(out.find("clients:   0 active"), std::string::npos) << out;
    EXPECT_NE(out.find("jobs:"), std::string::npos) << out;
    std::remove(socket.c_str());
}

} // namespace
} // namespace keq::service
