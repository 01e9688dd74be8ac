#include "src/service/session.h"

#include <algorithm>

#include <unistd.h>

#include "src/service/server.h"

namespace keq::service {

namespace wire = smt::wire;
using support::IoStatus;

namespace {

/** Reader-loop tick: bounds how stale a stop check can get. */
constexpr unsigned kReadTickMs = 200;

} // namespace

Session::Session(Server &server, uint64_t clientId, WireChannel channel)
    : server_(server), clientId_(clientId), channel_(std::move(channel)),
      rateTokens_(server.options().clientBurst),
      rateRefillAt_(std::chrono::steady_clock::now())
{}

Session::~Session() { join(); }

void
Session::start()
{
    thread_ = std::thread([this] { run(); });
}

void
Session::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
Session::shutdownChannel()
{
    channel_.shutdownBoth();
}

bool
Session::sendLocked(const std::string &frame)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    return channel_.sendFrame(frame);
}

bool
Session::sendVerdict(const wire::JobVerdictFrame &frame)
{
    bool sent = sendLocked(wire::encodeJobVerdict(frame));
    // The job left the in-flight window whether or not the client is
    // still there to hear about it.
    --inFlight_;
    return sent;
}

void
Session::noteJobDropped()
{
    --inFlight_;
}

bool
Session::handshake()
{
    std::string payload;
    IoStatus status = channel_.recvFrame(
        payload, server_.options().handshakeTimeoutMs);
    wire::FrameType type{};
    std::string body;
    wire::ClientHelloFrame hello;
    std::string error;
    wire::HelloRejectFrame reject;
    if (status != IoStatus::Ok) {
        // Silent or dead connector: nothing to negotiate with.
        return false;
    }
    if (!wire::splitFrame(payload, type, body) ||
        type != wire::FrameType::ClientHello ||
        !wire::decodeClientHello(body, hello, error)) {
        reject.message = "malformed hello frame" +
                         (error.empty() ? "" : ": " + error);
        sendLocked(wire::encodeHelloReject(reject));
        return false;
    }
    if (hello.magic != wire::kServiceMagic) {
        reject.message = "bad service magic";
        sendLocked(wire::encodeHelloReject(reject));
        return false;
    }
    if (hello.protocolVersion < wire::kMinServiceProtocolVersion ||
        hello.protocolVersion > wire::kProtocolVersion) {
        reject.message = "unsupported protocol version " +
                         std::to_string(hello.protocolVersion) +
                         " (daemon speaks " +
                         std::to_string(wire::kProtocolVersion) + ")";
        sendLocked(wire::encodeHelloReject(reject));
        return false;
    }
    wire::ServerHelloFrame ack;
    ack.pid = static_cast<uint64_t>(::getpid());
    return sendLocked(wire::encodeServerHello(ack));
}

void
Session::sendBusy(uint64_t jobId)
{
    wire::BusyFrame busy;
    busy.jobId = jobId;
    busy.inFlightLimit = server_.options().maxInFlightPerClient;
    sendLocked(wire::encodeBusy(busy));
}

bool
Session::takeRateToken()
{
    double rate = server_.options().clientRatePerSec;
    if (rate <= 0.0)
        return true;
    double burst = std::max(1.0,
                            double(server_.options().clientBurst));
    auto now = std::chrono::steady_clock::now();
    double elapsed =
        std::chrono::duration<double>(now - rateRefillAt_).count();
    rateRefillAt_ = now;
    rateTokens_ = std::min(burst, rateTokens_ + elapsed * rate);
    if (rateTokens_ < 1.0)
        return false;
    rateTokens_ -= 1.0;
    return true;
}

void
Session::handleSubmit(const std::string &body)
{
    wire::SubmitJobFrame job;
    std::string error;
    if (!wire::decodeSubmitJob(body, job, error)) {
        sendLocked(wire::encodeError("bad SubmitJob: " + error));
        return;
    }
    // Admission control, layered: every reject is a typed Busy, which
    // the client answers by backing off or degrading to local solving
    // — never a dropped frame or an unbounded queue.
    if (server_.draining()) {
        // The admitted-job set is frozen during drain.
        ++server_.busyRejects_;
        sendBusy(job.jobId);
        return;
    }
    unsigned limit = server_.options().maxInFlightPerClient;
    // The increment is done optimistically by the only thread that
    // ever increments (this reader), so the cap cannot be raced past.
    if (limit > 0 && inFlight_.load() >= limit) {
        ++server_.busyRejects_;
        sendBusy(job.jobId);
        return;
    }
    unsigned queuedCap = server_.options().maxQueuedPerClient;
    if (queuedCap > 0 &&
        server_.queue_.queuedFor(clientId_) >= queuedCap) {
        ++server_.quotaRejects_;
        sendBusy(job.jobId);
        return;
    }
    if (!takeRateToken()) {
        ++server_.quotaRejects_;
        sendBusy(job.jobId);
        return;
    }
    ++inFlight_;
    JobWork work;
    work.clientId = clientId_;
    work.jobId = job.jobId;
    work.function = std::move(job.function);
    work.moduleText = std::move(job.moduleText);
    work.options = job.options;
    work.admittedAt = std::chrono::steady_clock::now();
    server_.admitJob(std::move(work));
}

void
Session::handleStatus()
{
    sendLocked(wire::encodeJobStatus(server_.statusFrame()));
}

void
Session::run()
{
    if (!handshake()) {
        ++server_.helloRejects_;
        // Shut down, do not close: Server::stop() may call
        // shutdownChannel() on this session at any moment, and the fd
        // must stay ours until the session is destroyed.
        channel_.shutdownBoth();
        done_.store(true);
        return;
    }

    std::string payload;
    while (!server_.stopping()) {
        IoStatus status = channel_.recvFrame(payload, kReadTickMs);
        if (status == IoStatus::Timeout)
            continue;
        if (status != IoStatus::Ok)
            break; // client gone (Eof) or socket error
        wire::FrameType type{};
        std::string body;
        if (!wire::splitFrame(payload, type, body)) {
            sendLocked(wire::encodeError("unknown frame"));
            break;
        }
        if (type == wire::FrameType::SubmitJob) {
            handleSubmit(body);
        } else if (type == wire::FrameType::JobStatus) {
            handleStatus();
        } else if (type == wire::FrameType::Shutdown) {
            server_.requestShutdown();
            break;
        } else {
            sendLocked(wire::encodeError(
                std::string("unexpected frame: ") +
                wire::frameTypeName(type)));
            break;
        }
    }

    // Queued-but-unstarted jobs of a vanished client are wasted work;
    // drop them. Running ones finish and their verdicts no-op on send.
    server_.dropClientJobs(clientId_);
    channel_.shutdownBoth();
    done_.store(true);
}

} // namespace keq::service
