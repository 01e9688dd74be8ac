#ifndef KEQ_SMT_WIRE_H
#define KEQ_SMT_WIRE_H

/**
 * @file
 * Binary wire protocol between the pipeline and sandboxed solver
 * workers.
 *
 * A sandboxed query crosses a process boundary, so the hash-consed term
 * DAG must be flattened to bytes and rebuilt inside the worker's own
 * TermFactory. The codec here is designed around two properties the
 * sandbox depends on:
 *
 *  1. **Round-trip identity.** Nodes are emitted in ascending creation
 *     order (a valid topological order: operands always have smaller
 *     ids than their parents). A fresh factory replaying the nodes
 *     therefore reproduces the source factory's *relative* id order,
 *     and because every serialized term is already a fixed point of the
 *     factory's constructor folding, replay creates a structurally
 *     identical DAG — encode(parse(encode(t))) == encode(t) and the
 *     CachingSolver's structural fingerprints agree across the
 *     boundary. The property tests in tests/smt/wire_test.cc pin this.
 *
 *  2. **Hostile-input safety.** The parent treats worker bytes (and the
 *     worker treats parent bytes) as untrusted: a crashed worker can
 *     leave a torn frame, and a corrupted frame must surface as a
 *     decode error, never as a KEQ_ASSERT abort inside TermFactory.
 *     Every kind, arity, sort, width and operand reference is validated
 *     before any factory constructor runs.
 *
 * Framing is a u32 little-endian payload length followed by the
 * payload; the payload's first byte is the FrameType. Integers are
 * little-endian fixed width or unsigned LEB128 ("varuint"); strings are
 * varuint length + raw bytes.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/solver.h"
#include "src/smt/term.h"

namespace keq::smt {

class TermFactory;

namespace wire {

/**
 * Version history. A service frame change bumps kProtocolVersion; a
 * worker frame change (Ready .. Shutdown) from v6 on bumps only
 * kWorkerProtocolVersion, which the worker's Ready carries.
 * v2: Cancel frame, ResetFrame strategy string, portfolio stats
 * fields.
 * v3: validation-service frames (ClientHello .. Busy) spoken between
 * keqc and the keqd daemon, with explicit version negotiation at
 * connect.
 * v4: JobStatus carries the month-scale operability counters (store
 * bytes/evictions/quarantines, audit mismatches, quota rejects) and
 * the draining flag.
 * v5: multi-host transport. SubmitJob carries a deterministic job
 * fingerprint (idempotent resubmission after failover), JobStatus
 * grows dedup + per-transport accept counters, and Ping/Pong frames
 * give clients a connection-level heartbeat.
 * v6: the stats block loses the seven portfolio and batched-discharge
 * counters (26 counters, then totalSeconds), and JobOptions loses its
 * batch-discharge byte.
 * v7: the multi-host layer is gone. SubmitJob loses its fingerprint,
 * JobStatus its dedup and per-transport accept counters, and Ping and
 * Pong (type bytes 16 and 17) are retired. The daemon serves v7
 * clients only; an older client gets a HelloReject.
 */
constexpr uint32_t kProtocolVersion = 7;

/**
 * Worker frames, versioned apart from the service protocol: only a
 * parent and a worker of the same build speak them.
 * v6: Reset trades the two bytes the worker never read (cache, guard)
 * for the guard's retry count and a model-capture flag, and a Sat
 * Result can carry the backend's model.
 * v7: the Cancel frame is gone, Reset names its lane in one byte
 * instead of a lane-roster string, and the stats block is v6's.
 */
constexpr uint32_t kWorkerProtocolVersion = 7;

/** Oldest client protocol a daemon serves: only its own. */
constexpr uint32_t kMinServiceProtocolVersion = kProtocolVersion;

/**
 * First four bytes of every ClientHello ("KEQD" little-endian). A
 * random process writing to the daemon socket fails the magic check
 * deterministically instead of being misread as a version mismatch.
 */
constexpr uint32_t kServiceMagic = 0x4451454bu;

/** Upper bound on a single frame payload; larger lengths are corrupt. */
constexpr uint32_t kMaxFramePayload = 64u << 20;

/** Frame discriminator (first payload byte). */
enum class FrameType : uint8_t {
    // worker -> parent
    Ready = 1,     ///< handshake: protocol version + worker pid
    Heartbeat = 2, ///< liveness: in-flight query seq + worker RSS
    Result = 3,    ///< verdict for one Query
    Error = 4,     ///< worker-side protocol failure (diagnostic string)

    // parent -> worker
    Reset = 5,    ///< begin a session: fresh factory + solver stack
    Query = 6,    ///< one checkSat request
    Shutdown = 7, ///< polite exit request (also client -> daemon)
    // 8 was Cancel (worker protocol 6 and older).

    // validation service: client -> daemon
    ClientHello = 9, ///< connect handshake: magic + version + name
    SubmitJob = 10,  ///< one function-validation job
    JobStatus = 11,  ///< status probe (daemon echoes it back, filled)

    // validation service: daemon -> client
    ServerHello = 12, ///< handshake accept: version + daemon pid
    HelloReject = 13, ///< typed handshake rejection (version skew)
    JobVerdict = 14,  ///< one finished job's report + solver stats
    Busy = 15,        ///< admission control: in-flight cap reached
    // 16 and 17 were Ping and Pong (service protocol 6 and older).
};

const char *frameTypeName(FrameType type);

// --- Low-level byte codec -----------------------------------------------

/** Append-only byte sink for payload construction. */
class Encoder
{
  public:
    void u8(uint8_t value) { bytes_.push_back(static_cast<char>(value)); }
    void u32(uint32_t value);
    void u64(uint64_t value);
    void f64(double value); ///< IEEE bits as u64
    void varuint(uint64_t value);
    void str(const std::string &value);

    const std::string &bytes() const { return bytes_; }
    std::string take() { return std::move(bytes_); }

  private:
    std::string bytes_;
};

/**
 * Bounds-checked cursor over untrusted payload bytes. All getters
 * return false (and poison the decoder) on truncation; fail() carries
 * a diagnostic.
 */
class Decoder
{
  public:
    explicit Decoder(const std::string &bytes) : bytes_(&bytes) {}

    bool u8(uint8_t &out);
    bool u32(uint32_t &out);
    bool u64(uint64_t &out);
    bool f64(double &out);
    bool varuint(uint64_t &out);
    bool str(std::string &out);

    /** Marks the decode failed with @p why (keeps the first reason). */
    bool fail(const std::string &why);

    bool ok() const { return error_.empty(); }
    bool atEnd() const { return pos_ == bytes_->size(); }
    const std::string &error() const { return error_; }

  private:
    const std::string *bytes_;
    size_t pos_ = 0;
    std::string error_;
};

// --- Term codec ---------------------------------------------------------

/**
 * Cross-query variable-sort context. The factory KEQ_ASSERTs when one
 * name is requested with two different sorts, so a worker session keeps
 * one VarSortContext alive across parses to reject such (corrupt)
 * frames before they reach the factory.
 */
using VarSortContext = std::unordered_map<std::string, Sort>;

/** Serializes @p terms (their full reachable DAG) into @p enc. */
void encodeTerms(Encoder &enc, const std::vector<Term> &terms);

/**
 * Rebuilds terms previously written by encodeTerms inside @p factory.
 * Fully validates the bytes; on any inconsistency returns false via
 * dec.fail() without having violated a factory precondition. @p vars
 * may be null when the factory is fresh and used for a single parse.
 */
bool decodeTerms(Decoder &dec, TermFactory &factory,
                 VarSortContext *vars, std::vector<Term> &out);

// --- Stats codec --------------------------------------------------------

void encodeStats(Encoder &enc, const SolverStats &stats);
bool decodeStats(Decoder &dec, SolverStats &out);

// --- Typed frames -------------------------------------------------------

struct ReadyFrame
{
    uint32_t protocolVersion = 0;
    uint64_t pid = 0;
};

struct HeartbeatFrame
{
    uint64_t querySeq = 0; ///< 0 when idle
    uint64_t rssKb = 0;    ///< worker resident set, for OOM forensics
};

struct ResetFrame
{
    uint32_t timeoutMs = 0;      ///< per-query solver deadline
    uint32_t memoryBudgetMb = 0; ///< soft solver budget (0 = none)
    uint32_t retries = 1;        ///< guard: same-rung retries per rung
    bool captureModels = false;  ///< Sat Results carry the model
    Lane lane = Lane::Default;   ///< the session's backend
};

struct QueryFrame
{
    uint64_t seq = 0;
    uint32_t timeoutMs = 0; ///< overrides the session deadline when != 0
    std::vector<Term> assertions;
};

struct ResultFrame
{
    uint64_t seq = 0;
    SatResult result = SatResult::Unknown;
    FailureKind failureKind = FailureKind::None;
    std::string unknownReason;
    SolverStats stats; ///< worker-side delta for this query
    /**
     * The backend's model of a Sat answer, when the session captures
     * models: bitvectors of 1..64 bits and bools. Arrays never travel;
     * the backends extract none.
     */
    std::optional<Assignment> model;
};

// --- Validation-service frames (keqc <-> keqd, protocol v3) -------------

/**
 * Client -> daemon connect handshake. The daemon answers with
 * ServerHello on success or HelloReject (then closes) when the magic
 * or protocol version does not match — a client from a different
 * build learns *why* instead of hitting undefined decode behavior.
 */
struct ClientHelloFrame
{
    uint32_t magic = kServiceMagic;
    uint32_t protocolVersion = kProtocolVersion;
    std::string clientName; ///< advisory, for daemon-side diagnostics
};

struct ServerHelloFrame
{
    uint32_t protocolVersion = kProtocolVersion;
    uint64_t pid = 0; ///< daemon pid, for operator diagnostics
};

struct HelloRejectFrame
{
    uint32_t supportedVersion = kProtocolVersion;
    std::string message;
};

/**
 * The deterministic validation knobs a job carries. This is the
 * subset of driver::{PipelineOptions, ExecutionOptions} that changes
 * *verdicts* (canonical summaries), not how the daemon schedules or
 * isolates the work — solver pools, caching and sandboxing stay
 * daemon-side policy so every client shares the warm resources.
 */
struct JobOptionsFrame
{
    uint8_t mergeStores = 0;    ///< isel::IselOptions::mergeStores
    uint8_t foldExtLoad = 0;    ///< isel::IselOptions::foldExtLoad
    uint8_t bug = 0;            ///< 0 none, 1 waw, 2 loadwiden
    uint8_t refinementOnly = 0; ///< CheckerConfig::refinementOnly
    uint8_t positiveForm = 1;   ///< CheckerConfig::positiveFormOpt
    uint8_t crudeLiveness = 0;  ///< VcOptions::crudeLiveness
    uint32_t smtTimeoutMs = 30000; ///< CheckerConfig::solverTimeoutMs
    double wallBudgetSeconds = 0;  ///< CheckerConfig::wallBudgetSeconds
    uint64_t specSizeBudget = 0;   ///< PipelineOptions::specSizeBudget
};

/**
 * One validation job: a function pair identified by the module text
 * plus the function name. Shipping the whole module (not one
 * function) keeps parsing entirely daemon-side and lets the daemon
 * memoize the parsed module across the N jobs of one client run.
 */
struct SubmitJobFrame
{
    uint64_t jobId = 0; ///< client-chosen; echoed on JobVerdict/Busy
    std::string function; ///< e.g. "@max" — must be defined in module
    std::string moduleText;
    JobOptionsFrame options;
};

/** Daemon-wide counters echoed back on a JobStatus probe. */
struct JobStatusFrame
{
    uint64_t queuedJobs = 0;
    uint64_t runningJobs = 0;
    uint64_t completedJobs = 0;
    uint64_t storeEntries = 0; ///< verdicts in the shared query cache
    uint64_t activeClients = 0;   ///< sessions other than the asker's
    uint64_t busyRejects = 0;
    // Month-scale operability counters.
    uint64_t storeBytes = 0;      ///< accounted shared-cache bytes
    uint64_t storeEvictions = 0;  ///< cache LRU evictions (--solver-cache-mb)
    uint64_t storeQuarantined = 0;///< tombstones the verdict journal wrote
    uint64_t auditMismatches = 0; ///< trust-but-verify contradictions
    uint64_t quotaRejects = 0;    ///< Busy replies from quota/queue caps
    uint8_t draining = 0;         ///< 1 once SIGTERM drain began
};

/**
 * Daemon -> client: one finished job. The report travels as a
 * checkpoint-journal verdict record (driver::serializeFunctionReport)
 * — the same crash-proofed codec --resume trusts — plus the full
 * SolverStats delta the client folds into its --stats output.
 */
struct JobVerdictFrame
{
    uint64_t jobId = 0;
    std::string report; ///< serializeFunctionReport payload
    SolverStats stats;  ///< per-job solver-stack delta
};

/**
 * Daemon -> client: the per-client in-flight cap is reached; the job
 * was *not* admitted. The client resubmits after draining a verdict —
 * typed backpressure instead of unbounded daemon-side queue growth.
 */
struct BusyFrame
{
    uint64_t jobId = 0;
    uint32_t inFlightLimit = 0;
};

/** Wraps a payload in the length-prefixed frame envelope. */
std::string frameBytes(FrameType type, const std::string &payload);

std::string encodeReady(const ReadyFrame &frame);
std::string encodeHeartbeat(const HeartbeatFrame &frame);
std::string encodeReset(const ResetFrame &frame);
std::string encodeQuery(const QueryFrame &frame);
std::string encodeResult(const ResultFrame &frame);
std::string encodeError(const std::string &message);
std::string encodeShutdown();
std::string encodeClientHello(const ClientHelloFrame &frame);
std::string encodeServerHello(const ServerHelloFrame &frame);
std::string encodeHelloReject(const HelloRejectFrame &frame);
std::string encodeSubmitJob(const SubmitJobFrame &frame);
std::string encodeJobStatus(const JobStatusFrame &frame);
std::string encodeJobVerdict(const JobVerdictFrame &frame);
std::string encodeBusy(const BusyFrame &frame);

/**
 * Splits a received payload into its FrameType and body decoder input.
 * Returns false on an empty or unknown-typed payload.
 */
bool splitFrame(const std::string &payload, FrameType &type,
                std::string &body);

bool decodeReady(const std::string &body, ReadyFrame &out,
                 std::string &error);
bool decodeHeartbeat(const std::string &body, HeartbeatFrame &out,
                     std::string &error);
bool decodeReset(const std::string &body, ResetFrame &out,
                 std::string &error);
bool decodeQuery(const std::string &body, TermFactory &factory,
                 VarSortContext *vars, QueryFrame &out,
                 std::string &error);
bool decodeResult(const std::string &body, ResultFrame &out,
                  std::string &error);
bool decodeError(const std::string &body, std::string &message);
bool decodeClientHello(const std::string &body, ClientHelloFrame &out,
                       std::string &error);
bool decodeServerHello(const std::string &body, ServerHelloFrame &out,
                       std::string &error);
bool decodeHelloReject(const std::string &body, HelloRejectFrame &out,
                       std::string &error);
bool decodeSubmitJob(const std::string &body, SubmitJobFrame &out,
                     std::string &error);
bool decodeJobStatus(const std::string &body, JobStatusFrame &out,
                     std::string &error);
bool decodeJobVerdict(const std::string &body, JobVerdictFrame &out,
                      std::string &error);
bool decodeBusy(const std::string &body, BusyFrame &out,
                std::string &error);

} // namespace wire
} // namespace keq::smt

#endif // KEQ_SMT_WIRE_H
