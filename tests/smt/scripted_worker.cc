/**
 * @file
 * A scripted stand-in for keq-solver-worker. It speaks the worker's
 * wire protocol but never solves: every answer comes from a script, so
 * the sandbox tests can stage races that real Z3 produces only by
 * chance, such as a losing lane that answers after its Cancel and
 * contradicts the winner. The session's lane strategy picks the script:
 *
 *  - "default" answers Unsat at once (the race's winner);
 *  - "int2bv" waits for its Cancel, then answers Sat (a reaped lane's
 *    wrong answer);
 *  - "cold" is the supervisor's re-check, and the query's timeout picks
 *    its answer: 1 ms answers Unsat, 2 ms answers Sat, and any other
 *    timeout never answers (the supervisor has to kill it).
 */

#include <cerrno>
#include <string>

#include <unistd.h>

#include "src/smt/term_factory.h"
#include "src/smt/wire.h"

namespace {

using namespace keq::smt;

bool
readExact(std::string &out, size_t bytes)
{
    char buffer[4096];
    while (bytes > 0) {
        size_t chunk = bytes < sizeof buffer ? bytes : sizeof buffer;
        ssize_t got = ::read(STDIN_FILENO, buffer, chunk);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        out.append(buffer, static_cast<size_t>(got));
        bytes -= static_cast<size_t>(got);
    }
    return true;
}

bool
writeAll(const std::string &bytes)
{
    size_t offset = 0;
    while (offset < bytes.size()) {
        ssize_t wrote = ::write(STDOUT_FILENO, bytes.data() + offset,
                                bytes.size() - offset);
        if (wrote < 0 && errno == EINTR)
            continue;
        if (wrote <= 0)
            return false;
        offset += static_cast<size_t>(wrote);
    }
    return true;
}

/** Reads one frame; false on EOF or a malformed frame. */
bool
readFrame(wire::FrameType &type, std::string &body)
{
    std::string header;
    if (!readExact(header, 4))
        return false;
    wire::Decoder decoder(header);
    uint32_t length = 0;
    decoder.u32(length);
    std::string payload;
    return length > 0 && length <= wire::kMaxFramePayload &&
           readExact(payload, length) &&
           wire::splitFrame(payload, type, body);
}

bool
answer(uint64_t seq, SatResult result)
{
    wire::ResultFrame frame;
    frame.seq = seq;
    frame.result = result;
    return writeAll(wire::encodeResult(frame));
}

} // namespace

int
main()
{
    wire::ReadyFrame ready;
    ready.protocolVersion = wire::kWorkerProtocolVersion;
    ready.pid = static_cast<uint64_t>(::getpid());
    if (!writeAll(wire::encodeReady(ready)))
        return 3;

    TermFactory factory;
    wire::VarSortContext vars;
    std::string strategy;
    wire::FrameType type;
    std::string body;
    std::string error;
    while (readFrame(type, body)) {
        if (type == wire::FrameType::Shutdown)
            return 0;
        if (type == wire::FrameType::Reset) {
            wire::ResetFrame reset;
            if (!wire::decodeReset(body, reset, error))
                return 3;
            strategy = reset.strategy;
            vars.clear();
            continue;
        }
        if (type != wire::FrameType::Query)
            continue; // a Cancel for a query already answered
        wire::QueryFrame query;
        if (!wire::decodeQuery(body, factory, &vars, query, error))
            return 3;
        bool ok = true;
        if (strategy == "default") {
            ok = answer(query.seq, SatResult::Unsat);
        } else if (strategy == "int2bv") {
            while (readFrame(type, body) &&
                   type != wire::FrameType::Cancel) {
            }
            ok = answer(query.seq, SatResult::Sat);
        } else if (strategy == "cold" && query.timeoutMs == 1) {
            ok = answer(query.seq, SatResult::Unsat);
        } else if (strategy == "cold" && query.timeoutMs == 2) {
            ok = answer(query.seq, SatResult::Sat);
        }
        if (!ok)
            return 3;
    }
    return 0;
}
