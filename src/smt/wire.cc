#include "src/smt/wire.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <type_traits>
#include <unordered_map>

#include "src/smt/term_factory.h"
#include "src/support/apint.h"

namespace keq::smt::wire {

namespace {

constexpr uint8_t kMaxKind = static_cast<uint8_t>(Kind::Store);
constexpr uint8_t kMaxFrameType =
    static_cast<uint8_t>(FrameType::Pong);
/** The retired Cancel frame's type byte; no frame uses it now. */
constexpr uint8_t kRetiredFrameType = 8;

/** Fixed arity of each term kind (leaves are 0). */
unsigned
kindArity(Kind kind)
{
    switch (kind) {
    case Kind::BvConst:
    case Kind::BoolConst:
    case Kind::Var:
        return 0;
    case Kind::Not:
    case Kind::BvNot:
    case Kind::BvNeg:
    case Kind::ZExt:
    case Kind::SExt:
    case Kind::Extract:
        return 1;
    case Kind::Ite:
    case Kind::Store:
        return 3;
    default:
        return 2;
    }
}

bool
isBvBinOpKind(Kind kind)
{
    switch (kind) {
    case Kind::BvAdd:
    case Kind::BvSub:
    case Kind::BvMul:
    case Kind::BvUDiv:
    case Kind::BvSDiv:
    case Kind::BvURem:
    case Kind::BvSRem:
    case Kind::BvAnd:
    case Kind::BvOr:
    case Kind::BvXor:
    case Kind::BvShl:
    case Kind::BvLShr:
    case Kind::BvAShr:
        return true;
    default:
        return false;
    }
}

bool
isBvPredicateKind(Kind kind)
{
    return kind == Kind::BvUlt || kind == Kind::BvUle ||
           kind == Kind::BvSlt || kind == Kind::BvSle;
}

void
encodeSort(Encoder &enc, Sort sort)
{
    enc.u8(static_cast<uint8_t>(sort.kind()));
    enc.u8(static_cast<uint8_t>(sort.isBitVec() ? sort.width() : 0));
}

bool
decodeSort(Decoder &dec, Sort &out)
{
    uint8_t kind = 0, width = 0;
    if (!dec.u8(kind) || !dec.u8(width))
        return false;
    switch (static_cast<Sort::Kind>(kind)) {
    case Sort::Kind::Bool:
        if (width != 0)
            return dec.fail("Bool sort with nonzero width");
        out = Sort::boolSort();
        return true;
    case Sort::Kind::BitVec:
        if (width < 1 || width > 64)
            return dec.fail("bitvector width out of [1,64]");
        out = Sort::bitVec(width);
        return true;
    case Sort::Kind::MemArray:
        if (width != 0)
            return dec.fail("Mem sort with nonzero width");
        out = Sort::memArray();
        return true;
    }
    return dec.fail("unknown sort kind");
}

} // namespace

const char *
frameTypeName(FrameType type)
{
    switch (type) {
    case FrameType::Ready:
        return "ready";
    case FrameType::Heartbeat:
        return "heartbeat";
    case FrameType::Result:
        return "result";
    case FrameType::Error:
        return "error";
    case FrameType::Reset:
        return "reset";
    case FrameType::Query:
        return "query";
    case FrameType::Shutdown:
        return "shutdown";
    case FrameType::ClientHello:
        return "client-hello";
    case FrameType::SubmitJob:
        return "submit-job";
    case FrameType::JobStatus:
        return "job-status";
    case FrameType::ServerHello:
        return "server-hello";
    case FrameType::HelloReject:
        return "hello-reject";
    case FrameType::JobVerdict:
        return "job-verdict";
    case FrameType::Busy:
        return "busy";
    case FrameType::Ping:
        return "ping";
    case FrameType::Pong:
        return "pong";
    }
    return "?";
}

// --- Encoder ------------------------------------------------------------

void
Encoder::u32(uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        u8(static_cast<uint8_t>(value >> shift));
}

void
Encoder::u64(uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        u8(static_cast<uint8_t>(value >> shift));
}

void
Encoder::f64(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    u64(bits);
}

void
Encoder::varuint(uint64_t value)
{
    while (value >= 0x80) {
        u8(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    u8(static_cast<uint8_t>(value));
}

void
Encoder::str(const std::string &value)
{
    varuint(value.size());
    bytes_.append(value);
}

// --- Decoder ------------------------------------------------------------

bool
Decoder::fail(const std::string &why)
{
    if (error_.empty())
        error_ = why;
    return false;
}

bool
Decoder::u8(uint8_t &out)
{
    if (!ok())
        return false;
    if (pos_ >= bytes_->size())
        return fail("truncated payload");
    out = static_cast<uint8_t>((*bytes_)[pos_++]);
    return true;
}

bool
Decoder::u32(uint32_t &out)
{
    out = 0;
    for (int shift = 0; shift < 32; shift += 8) {
        uint8_t byte = 0;
        if (!u8(byte))
            return false;
        out |= static_cast<uint32_t>(byte) << shift;
    }
    return true;
}

bool
Decoder::u64(uint64_t &out)
{
    out = 0;
    for (int shift = 0; shift < 64; shift += 8) {
        uint8_t byte = 0;
        if (!u8(byte))
            return false;
        out |= static_cast<uint64_t>(byte) << shift;
    }
    return true;
}

bool
Decoder::f64(double &out)
{
    uint64_t bits = 0;
    if (!u64(bits))
        return false;
    std::memcpy(&out, &bits, sizeof out);
    return true;
}

bool
Decoder::varuint(uint64_t &out)
{
    out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        uint8_t byte = 0;
        if (!u8(byte))
            return false;
        out |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return true;
    }
    return fail("overlong varuint");
}

bool
Decoder::str(std::string &out)
{
    uint64_t size = 0;
    if (!varuint(size))
        return false;
    if (size > bytes_->size() - pos_)
        return fail("string length past end of payload");
    out.assign(*bytes_, pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return true;
}

// --- Term codec ---------------------------------------------------------

void
encodeTerms(Encoder &enc, const std::vector<Term> &terms)
{
    // Collect the reachable DAG, then emit nodes in ascending id order —
    // a topological order (operand ids precede parent ids) that a fresh
    // factory reproduces, keeping relative ids and therefore commutative
    // canonicalization stable across the process boundary.
    std::vector<Term> nodes;
    std::unordered_map<uint64_t, uint64_t> indexOf; // id -> emitted slot
    std::vector<Term> stack;
    for (Term root : terms)
        if (!root.isNull())
            stack.push_back(root);
    while (!stack.empty()) {
        Term term = stack.back();
        stack.pop_back();
        if (indexOf.count(term.id()))
            continue;
        indexOf.emplace(term.id(), 0); // slot fixed after the sort
        nodes.push_back(term);
        for (size_t i = 0; i < term.numOperands(); ++i)
            stack.push_back(term.operand(i));
    }
    std::sort(nodes.begin(), nodes.end(),
              [](Term a, Term b) { return a.id() < b.id(); });
    for (size_t i = 0; i < nodes.size(); ++i)
        indexOf[nodes[i].id()] = i;

    enc.varuint(nodes.size());
    for (Term term : nodes) {
        enc.u8(static_cast<uint8_t>(term.kind()));
        encodeSort(enc, term.sort());
        switch (term.kind()) {
        case Kind::BvConst:
            enc.u64(term.bvValue().zext());
            break;
        case Kind::BoolConst:
            enc.u8(term.boolValue() ? 1 : 0);
            break;
        case Kind::Var:
            enc.str(term.varName());
            break;
        case Kind::Extract:
            enc.u8(static_cast<uint8_t>(term.extractHi()));
            enc.u8(static_cast<uint8_t>(term.extractLo()));
            break;
        default:
            break;
        }
        enc.varuint(term.numOperands());
        for (size_t i = 0; i < term.numOperands(); ++i)
            enc.varuint(indexOf[term.operand(i).id()]);
    }
    enc.varuint(terms.size());
    for (Term root : terms) {
        // Null roots never occur on the solver path; encode defensively
        // as a self-describing sentinel that decode rejects.
        enc.varuint(root.isNull() ? nodes.size() : indexOf[root.id()]);
    }
}

bool
decodeTerms(Decoder &dec, TermFactory &factory, VarSortContext *vars,
            std::vector<Term> &out)
{
    uint64_t nodeCount = 0;
    if (!dec.varuint(nodeCount))
        return false;
    // Each node costs >= 5 bytes on the wire; reject counts a torn
    // frame cannot possibly back before allocating anything.
    if (nodeCount > kMaxFramePayload / 5)
        return dec.fail("implausible node count");

    VarSortContext localVars;
    if (vars == nullptr)
        vars = &localVars;

    std::vector<Term> built;
    built.reserve(static_cast<size_t>(nodeCount));
    for (uint64_t n = 0; n < nodeCount; ++n) {
        uint8_t rawKind = 0;
        Sort sort = Sort::boolSort();
        if (!dec.u8(rawKind))
            return false;
        if (rawKind > kMaxKind)
            return dec.fail("unknown term kind");
        Kind kind = static_cast<Kind>(rawKind);
        if (!decodeSort(dec, sort))
            return false;

        uint64_t bvBits = 0;
        uint8_t boolBits = 0, hi = 0, lo = 0;
        std::string name;
        switch (kind) {
        case Kind::BvConst:
            if (!dec.u64(bvBits))
                return false;
            break;
        case Kind::BoolConst:
            if (!dec.u8(boolBits))
                return false;
            break;
        case Kind::Var:
            if (!dec.str(name))
                return false;
            break;
        case Kind::Extract:
            if (!dec.u8(hi) || !dec.u8(lo))
                return false;
            break;
        default:
            break;
        }

        uint64_t arity = 0;
        if (!dec.varuint(arity))
            return false;
        if (arity != kindArity(kind))
            return dec.fail(std::string("bad arity for ") +
                            kindName(kind));
        Term ops[3];
        for (uint64_t i = 0; i < arity; ++i) {
            uint64_t ref = 0;
            if (!dec.varuint(ref))
                return false;
            if (ref >= built.size())
                return dec.fail("operand reference not topological");
            ops[i] = built[static_cast<size_t>(ref)];
        }

        // Validate every TermFactory precondition before constructing;
        // corrupt bytes must decode-fail, not trip a KEQ_ASSERT.
        auto wantBool = [&](Term t) { return t.sort().isBool(); };
        auto wantBv = [&](Term t) { return t.sort().isBitVec(); };
        Term term;
        switch (kind) {
        case Kind::BvConst:
            if (!sort.isBitVec())
                return dec.fail("BvConst with non-bitvector sort");
            if (support::ApInt(sort.width(), bvBits).zext() != bvBits)
                return dec.fail("BvConst bits exceed declared width");
            term = factory.bvConst(
                support::ApInt(sort.width(), bvBits));
            break;
        case Kind::BoolConst:
            if (!sort.isBool() || boolBits > 1)
                return dec.fail("malformed BoolConst");
            term = factory.boolConst(boolBits != 0);
            break;
        case Kind::Var: {
            if (name.empty())
                return dec.fail("variable with empty name");
            auto [it, inserted] = vars->emplace(name, sort);
            if (!inserted && !(it->second == sort))
                return dec.fail("variable '" + name +
                                "' redeclared at a different sort");
            term = factory.var(name, sort);
            break;
        }
        case Kind::Not:
            if (!wantBool(ops[0]))
                return dec.fail("Not of non-boolean");
            term = factory.mkNot(ops[0]);
            break;
        case Kind::And:
        case Kind::Or:
        case Kind::Implies:
        case Kind::Iff: {
            if (!wantBool(ops[0]) || !wantBool(ops[1]))
                return dec.fail("boolean connective of non-booleans");
            if (kind == Kind::And)
                term = factory.mkAnd(ops[0], ops[1]);
            else if (kind == Kind::Or)
                term = factory.mkOr(ops[0], ops[1]);
            else if (kind == Kind::Implies)
                term = factory.mkImplies(ops[0], ops[1]);
            else
                term = factory.mkIff(ops[0], ops[1]);
            break;
        }
        case Kind::Ite:
            if (!wantBool(ops[0]) || !(ops[1].sort() == ops[2].sort()))
                return dec.fail("malformed Ite");
            term = factory.mkIte(ops[0], ops[1], ops[2]);
            break;
        case Kind::Eq:
            if (!(ops[0].sort() == ops[1].sort()))
                return dec.fail("Eq across different sorts");
            term = factory.mkEq(ops[0], ops[1]);
            break;
        case Kind::ZExt:
        case Kind::SExt:
            if (!wantBv(ops[0]) || !sort.isBitVec() ||
                sort.width() < ops[0].sort().width())
                return dec.fail("narrowing extension");
            term = kind == Kind::ZExt
                       ? factory.zext(ops[0], sort.width())
                       : factory.sext(ops[0], sort.width());
            break;
        case Kind::Extract:
            if (!wantBv(ops[0]) || hi < lo ||
                hi >= ops[0].sort().width())
                return dec.fail("extract bounds out of range");
            term = factory.extract(ops[0], hi, lo);
            break;
        case Kind::Concat:
            if (!wantBv(ops[0]) || !wantBv(ops[1]) ||
                ops[0].sort().width() + ops[1].sort().width() > 64)
                return dec.fail("concat wider than 64 bits");
            term = factory.concat(ops[0], ops[1]);
            break;
        case Kind::Select:
            if (!ops[0].sort().isMemArray() || !wantBv(ops[1]) ||
                ops[1].sort().width() != 64)
                return dec.fail("malformed Select");
            term = factory.select(ops[0], ops[1]);
            break;
        case Kind::Store:
            if (!ops[0].sort().isMemArray() || !wantBv(ops[1]) ||
                ops[1].sort().width() != 64 || !wantBv(ops[2]) ||
                ops[2].sort().width() != 8)
                return dec.fail("malformed Store");
            term = factory.store(ops[0], ops[1], ops[2]);
            break;
        default:
            if (isBvBinOpKind(kind)) {
                if (!wantBv(ops[0]) ||
                    !(ops[0].sort() == ops[1].sort()))
                    return dec.fail("bitvector op width mismatch");
                term = factory.bvBinOp(kind, ops[0], ops[1]);
            } else if (isBvPredicateKind(kind)) {
                if (!wantBv(ops[0]) ||
                    !(ops[0].sort() == ops[1].sort()))
                    return dec.fail("predicate width mismatch");
                term = factory.bvPredicate(kind, ops[0], ops[1]);
            } else if (kind == Kind::BvNot || kind == Kind::BvNeg) {
                if (!wantBv(ops[0]))
                    return dec.fail("bitvector op of non-bitvector");
                term = kind == Kind::BvNot ? factory.bvNot(ops[0])
                                           : factory.bvNeg(ops[0]);
            } else {
                return dec.fail("unhandled term kind");
            }
        }
        if (!(term.sort() == sort))
            return dec.fail("constructed sort disagrees with declared");
        built.push_back(term);
    }

    uint64_t rootCount = 0;
    if (!dec.varuint(rootCount))
        return false;
    if (rootCount > kMaxFramePayload)
        return dec.fail("implausible root count");
    out.clear();
    out.reserve(static_cast<size_t>(rootCount));
    for (uint64_t i = 0; i < rootCount; ++i) {
        uint64_t ref = 0;
        if (!dec.varuint(ref))
            return false;
        if (ref >= built.size())
            return dec.fail("root reference out of range");
        out.push_back(built[static_cast<size_t>(ref)]);
    }
    return true;
}

// --- Stats codec --------------------------------------------------------

namespace {

/** The stats payload's uint64_t fields: every counter but totalSeconds. */
constexpr uint64_t kStatsFieldCount = [] {
    uint64_t count = 0;
    SolverStats stats;
    forEachCounter(
        [&](CounterInfo, const auto &field) {
            using Field = std::decay_t<decltype(field)>;
            count += std::is_same_v<Field, uint64_t>;
        },
        stats);
    return count;
}();
static_assert(kStatsFieldCount == 26,
              "the SolverStats counter table changed the v6 stats layout: "
              "bump kProtocolVersion and kWorkerProtocolVersion");

} // namespace

void
encodeStats(Encoder &enc, const SolverStats &stats)
{
    enc.varuint(kStatsFieldCount);
    forEachCounter(
        [&](CounterInfo, const auto &field) {
            if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                         double>)
                enc.f64(field);
            else
                enc.u64(field);
        },
        stats);
}

bool
decodeStats(Decoder &dec, SolverStats &out)
{
    uint64_t fields = 0;
    if (!dec.varuint(fields))
        return false;
    if (fields != kStatsFieldCount)
        return dec.fail("stats field count mismatch (version skew?)");
    bool allRead = true;
    forEachCounter(
        [&](CounterInfo, auto &field) {
            if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                         double>)
                allRead = allRead && dec.f64(field);
            else
                allRead = allRead && dec.u64(field);
        },
        out);
    return allRead;
}

// --- Typed frames -------------------------------------------------------

std::string
frameBytes(FrameType type, const std::string &payload)
{
    Encoder enc;
    enc.u32(static_cast<uint32_t>(payload.size() + 1));
    enc.u8(static_cast<uint8_t>(type));
    std::string bytes = enc.take();
    bytes += payload;
    return bytes;
}

bool
splitFrame(const std::string &payload, FrameType &type,
           std::string &body)
{
    if (payload.empty())
        return false;
    uint8_t raw = static_cast<uint8_t>(payload[0]);
    if (raw < 1 || raw > kMaxFrameType || raw == kRetiredFrameType)
        return false;
    type = static_cast<FrameType>(raw);
    body = payload.substr(1);
    return true;
}

std::string
encodeReady(const ReadyFrame &frame)
{
    Encoder enc;
    enc.u32(frame.protocolVersion);
    enc.u64(frame.pid);
    return frameBytes(FrameType::Ready, enc.take());
}

std::string
encodeHeartbeat(const HeartbeatFrame &frame)
{
    Encoder enc;
    enc.u64(frame.querySeq);
    enc.u64(frame.rssKb);
    return frameBytes(FrameType::Heartbeat, enc.take());
}

std::string
encodeReset(const ResetFrame &frame)
{
    Encoder enc;
    enc.u32(frame.timeoutMs);
    enc.u32(frame.memoryBudgetMb);
    enc.u32(frame.retries);
    enc.u8(frame.captureModels ? 1 : 0);
    enc.u8(static_cast<uint8_t>(frame.lane));
    return frameBytes(FrameType::Reset, enc.take());
}

std::string
encodeQuery(const QueryFrame &frame)
{
    Encoder enc;
    enc.u64(frame.seq);
    enc.u32(frame.timeoutMs);
    encodeTerms(enc, frame.assertions);
    return frameBytes(FrameType::Query, enc.take());
}

namespace {

/** Names in sorted order, so equal models encode to equal bytes. */
void
encodeModel(Encoder &enc, const Assignment &model)
{
    std::map<std::string, support::ApInt> bvs(model.bvs().begin(),
                                              model.bvs().end());
    enc.varuint(bvs.size());
    for (const auto &[name, value] : bvs) {
        enc.str(name);
        enc.u8(static_cast<uint8_t>(value.width()));
        enc.u64(value.zext());
    }
    std::map<std::string, bool> bools(model.bools().begin(),
                                      model.bools().end());
    enc.varuint(bools.size());
    for (const auto &[name, value] : bools) {
        enc.str(name);
        enc.u8(value ? 1 : 0);
    }
}

/** Reads a u8 that must be 0 or 1. */
bool
decodeFlag(Decoder &dec, bool &out)
{
    uint8_t byte = 0;
    if (!dec.u8(byte))
        return false;
    if (byte > 1)
        return dec.fail("non-boolean flag byte");
    out = byte == 1;
    return true;
}

bool
decodeModel(Decoder &dec, Assignment &out)
{
    uint64_t count = 0;
    if (!dec.varuint(count))
        return false;
    for (uint64_t i = 0; i < count; ++i) {
        std::string name;
        uint8_t width = 0;
        uint64_t value = 0;
        if (!dec.str(name) || !dec.u8(width) || !dec.u64(value))
            return false;
        if (width < 1 || width > 64)
            return dec.fail("model bitvector width out of range");
        if (support::ApInt(width, value).zext() != value)
            return dec.fail("model value wider than its width");
        out.setBv(name, support::ApInt(width, value));
    }
    if (!dec.varuint(count))
        return false;
    for (uint64_t i = 0; i < count; ++i) {
        std::string name;
        bool value = false;
        if (!dec.str(name) || !decodeFlag(dec, value))
            return false;
        out.setBool(name, value);
    }
    return true;
}

} // namespace

std::string
encodeResult(const ResultFrame &frame)
{
    Encoder enc;
    enc.u64(frame.seq);
    enc.u8(static_cast<uint8_t>(frame.result));
    enc.u8(static_cast<uint8_t>(frame.failureKind));
    enc.str(frame.unknownReason);
    encodeStats(enc, frame.stats);
    enc.u8(frame.model ? 1 : 0);
    if (frame.model)
        encodeModel(enc, *frame.model);
    return frameBytes(FrameType::Result, enc.take());
}

std::string
encodeError(const std::string &message)
{
    Encoder enc;
    enc.str(message);
    return frameBytes(FrameType::Error, enc.take());
}

std::string
encodeShutdown()
{
    return frameBytes(FrameType::Shutdown, std::string());
}

// --- Validation-service frames ------------------------------------------

namespace {

void
encodeJobOptionsBody(Encoder &enc, const JobOptionsFrame &options)
{
    enc.u8(options.mergeStores);
    enc.u8(options.foldExtLoad);
    enc.u8(options.bug);
    enc.u8(options.refinementOnly);
    enc.u8(options.positiveForm);
    enc.u8(options.crudeLiveness);
    enc.u32(options.smtTimeoutMs);
    enc.f64(options.wallBudgetSeconds);
    enc.u64(options.specSizeBudget);
}

bool
decodeJobOptionsBody(Decoder &dec, JobOptionsFrame &out)
{
    if (!(dec.u8(out.mergeStores) && dec.u8(out.foldExtLoad) &&
          dec.u8(out.bug) && dec.u8(out.refinementOnly) &&
          dec.u8(out.positiveForm) && dec.u8(out.crudeLiveness) &&
          dec.u32(out.smtTimeoutMs) &&
          dec.f64(out.wallBudgetSeconds) &&
          dec.u64(out.specSizeBudget)))
        return false;
    if (out.mergeStores > 1 || out.foldExtLoad > 1 ||
        out.refinementOnly > 1 || out.positiveForm > 1 ||
        out.crudeLiveness > 1)
        return dec.fail("job-option flag not a boolean");
    if (out.bug > 2)
        return dec.fail("unknown isel bug discriminant");
    return true;
}

} // namespace

std::string
encodeClientHello(const ClientHelloFrame &frame)
{
    Encoder enc;
    enc.u32(frame.magic);
    enc.u32(frame.protocolVersion);
    enc.str(frame.clientName);
    return frameBytes(FrameType::ClientHello, enc.take());
}

std::string
encodeServerHello(const ServerHelloFrame &frame)
{
    Encoder enc;
    enc.u32(frame.protocolVersion);
    enc.u64(frame.pid);
    return frameBytes(FrameType::ServerHello, enc.take());
}

std::string
encodeHelloReject(const HelloRejectFrame &frame)
{
    Encoder enc;
    enc.u32(frame.supportedVersion);
    enc.str(frame.message);
    return frameBytes(FrameType::HelloReject, enc.take());
}

std::string
encodeSubmitJob(const SubmitJobFrame &frame)
{
    Encoder enc;
    enc.u64(frame.jobId);
    enc.str(frame.function);
    enc.str(frame.moduleText);
    encodeJobOptionsBody(enc, frame.options);
    enc.u64(frame.fingerprint);
    return frameBytes(FrameType::SubmitJob, enc.take());
}

std::string
encodeJobStatus(const JobStatusFrame &frame)
{
    Encoder enc;
    enc.u64(frame.queuedJobs);
    enc.u64(frame.runningJobs);
    enc.u64(frame.completedJobs);
    enc.u64(frame.storeEntries);
    enc.u64(frame.activeClients);
    enc.u64(frame.busyRejects);
    enc.u64(frame.storeBytes);
    enc.u64(frame.storeEvictions);
    enc.u64(frame.storeQuarantined);
    enc.u64(frame.auditMismatches);
    enc.u64(frame.quotaRejects);
    enc.u8(frame.draining);
    enc.u64(frame.dedupHits);
    enc.u64(frame.acceptedUnix);
    enc.u64(frame.acceptedTcp);
    return frameBytes(FrameType::JobStatus, enc.take());
}

std::string
encodeJobVerdict(const JobVerdictFrame &frame)
{
    Encoder enc;
    enc.u64(frame.jobId);
    enc.str(frame.report);
    encodeStats(enc, frame.stats);
    return frameBytes(FrameType::JobVerdict, enc.take());
}

std::string
encodeBusy(const BusyFrame &frame)
{
    Encoder enc;
    enc.u64(frame.jobId);
    enc.u32(frame.inFlightLimit);
    return frameBytes(FrameType::Busy, enc.take());
}

std::string
encodePing(const PingFrame &frame)
{
    Encoder enc;
    enc.u64(frame.nonce);
    return frameBytes(FrameType::Ping, enc.take());
}

std::string
encodePong(const PongFrame &frame)
{
    Encoder enc;
    enc.u64(frame.nonce);
    return frameBytes(FrameType::Pong, enc.take());
}

namespace {

bool
finish(Decoder &dec, std::string &error)
{
    if (!dec.ok()) {
        error = dec.error();
        return false;
    }
    if (!dec.atEnd()) {
        error = "trailing bytes after frame body";
        return false;
    }
    return true;
}

} // namespace

bool
decodeReady(const std::string &body, ReadyFrame &out, std::string &error)
{
    Decoder dec(body);
    if (!dec.u32(out.protocolVersion) || !dec.u64(out.pid))
        return finish(dec, error);
    return finish(dec, error);
}

bool
decodeHeartbeat(const std::string &body, HeartbeatFrame &out,
                std::string &error)
{
    Decoder dec(body);
    dec.u64(out.querySeq) && dec.u64(out.rssKb);
    return finish(dec, error);
}

bool
decodeReset(const std::string &body, ResetFrame &out, std::string &error)
{
    Decoder dec(body);
    uint8_t lane = 0;
    if (dec.u32(out.timeoutMs) && dec.u32(out.memoryBudgetMb) &&
        dec.u32(out.retries) && decodeFlag(dec, out.captureModels) &&
        dec.u8(lane)) {
        if (lane > static_cast<uint8_t>(Lane::Cold))
            dec.fail("bad Lane discriminant");
        else
            out.lane = static_cast<Lane>(lane);
    }
    return finish(dec, error);
}

bool
decodeQuery(const std::string &body, TermFactory &factory,
            VarSortContext *vars, QueryFrame &out, std::string &error)
{
    Decoder dec(body);
    if (dec.u64(out.seq) && dec.u32(out.timeoutMs))
        decodeTerms(dec, factory, vars, out.assertions);
    return finish(dec, error);
}

bool
decodeResult(const std::string &body, ResultFrame &out,
             std::string &error)
{
    Decoder dec(body);
    uint8_t sat = 0, kind = 0;
    bool hasModel = false;
    if (dec.u64(out.seq) && dec.u8(sat) && dec.u8(kind) &&
        dec.str(out.unknownReason) && decodeStats(dec, out.stats) &&
        decodeFlag(dec, hasModel)) {
        if (sat > static_cast<uint8_t>(SatResult::Unknown))
            dec.fail("bad SatResult discriminant");
        else if (kind >
                 static_cast<uint8_t>(FailureKind::AuditMismatch))
            dec.fail("bad FailureKind discriminant");
        else {
            out.result = static_cast<SatResult>(sat);
            out.failureKind = static_cast<FailureKind>(kind);
        }
        out.model.reset();
        if (hasModel)
            decodeModel(dec, out.model.emplace());
    }
    return finish(dec, error);
}

bool
decodeError(const std::string &body, std::string &message)
{
    Decoder dec(body);
    std::string error;
    return dec.str(message) && finish(dec, error);
}

bool
decodeClientHello(const std::string &body, ClientHelloFrame &out,
                  std::string &error)
{
    Decoder dec(body);
    dec.u32(out.magic) && dec.u32(out.protocolVersion) &&
        dec.str(out.clientName);
    return finish(dec, error);
}

bool
decodeServerHello(const std::string &body, ServerHelloFrame &out,
                  std::string &error)
{
    Decoder dec(body);
    dec.u32(out.protocolVersion) && dec.u64(out.pid);
    return finish(dec, error);
}

bool
decodeHelloReject(const std::string &body, HelloRejectFrame &out,
                  std::string &error)
{
    Decoder dec(body);
    dec.u32(out.supportedVersion) && dec.str(out.message);
    return finish(dec, error);
}

bool
decodeSubmitJob(const std::string &body, SubmitJobFrame &out,
                std::string &error)
{
    Decoder dec(body);
    dec.u64(out.jobId) && dec.str(out.function) &&
        dec.str(out.moduleText) &&
        decodeJobOptionsBody(dec, out.options) && dec.u64(out.fingerprint);
    if (dec.ok() && out.function.empty())
        dec.fail("job with empty function name");
    return finish(dec, error);
}

bool
decodeJobStatus(const std::string &body, JobStatusFrame &out,
                std::string &error)
{
    Decoder dec(body);
    dec.u64(out.queuedJobs) && dec.u64(out.runningJobs) &&
        dec.u64(out.completedJobs) && dec.u64(out.storeEntries) &&
        dec.u64(out.activeClients) && dec.u64(out.busyRejects) &&
        dec.u64(out.storeBytes) && dec.u64(out.storeEvictions) &&
        dec.u64(out.storeQuarantined) && dec.u64(out.auditMismatches) &&
        dec.u64(out.quotaRejects) && dec.u8(out.draining) &&
        dec.u64(out.dedupHits) && dec.u64(out.acceptedUnix) &&
        dec.u64(out.acceptedTcp);
    return finish(dec, error);
}

bool
decodeJobVerdict(const std::string &body, JobVerdictFrame &out,
                 std::string &error)
{
    Decoder dec(body);
    if (dec.u64(out.jobId) && dec.str(out.report))
        decodeStats(dec, out.stats);
    return finish(dec, error);
}

bool
decodeBusy(const std::string &body, BusyFrame &out, std::string &error)
{
    Decoder dec(body);
    dec.u64(out.jobId) && dec.u32(out.inFlightLimit);
    return finish(dec, error);
}

bool
decodePing(const std::string &body, PingFrame &out, std::string &error)
{
    Decoder dec(body);
    dec.u64(out.nonce);
    return finish(dec, error);
}

bool
decodePong(const std::string &body, PongFrame &out, std::string &error)
{
    Decoder dec(body);
    dec.u64(out.nonce);
    return finish(dec, error);
}

} // namespace keq::smt::wire
