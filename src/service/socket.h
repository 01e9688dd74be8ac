#ifndef KEQ_SERVICE_SOCKET_H
#define KEQ_SERVICE_SOCKET_H

/**
 * @file
 * The validation service's Unix-socket transport.
 *
 * The daemon and its clients exchange exactly the same length-prefixed
 * frames as the solver sandbox (smt/wire: u32 LE payload length +
 * payload), but over an AF_UNIX stream socket instead of pipes. The
 * frame layer — WireChannel — owns a connected fd and never cares how
 * it was made (the tests drive it over socketpairs).
 *
 * Safety properties mirrored from support::Subprocess:
 *  - reads are deadline-aware (poll + read loop) so a dead peer turns
 *    into a classified Timeout/Eof, never a hung thread;
 *  - writes use MSG_NOSIGNAL so a disconnected peer surfaces as an
 *    error return instead of a SIGPIPE process death — the daemon must
 *    survive any client vanishing at any instant;
 *  - frame lengths are validated against wire::kMaxFramePayload before
 *    any allocation, so a garbage peer cannot OOM the daemon;
 *  - every read(2)/write(2)-family loop retries EINTR and resumes
 *    short transfers — frames survive arbitrary kernel fragmentation
 *    (pinned by the fragmenting fault-injection tests).
 */

#include <cstdint>
#include <string>

#include "src/support/subprocess.h" // support::IoStatus

namespace keq::service {

/**
 * One connected stream socket speaking wire frames. Owns the fd;
 * movable, not copyable.
 */
class WireChannel
{
  public:
    WireChannel() = default;
    explicit WireChannel(int fd) : fd_(fd) {}
    ~WireChannel();

    WireChannel(WireChannel &&rhs) noexcept;
    WireChannel &operator=(WireChannel &&rhs) noexcept;
    WireChannel(const WireChannel &) = delete;
    WireChannel &operator=(const WireChannel &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /**
     * Sends one already-framed byte string (wire::frameBytes output).
     * False when the peer is gone or the write fails; never raises
     * SIGPIPE. Callers serialize sends themselves when several threads
     * share the channel (Session holds a write mutex).
     */
    bool sendFrame(const std::string &frame);

    /**
     * Receives one frame payload (the length prefix is consumed and
     * validated here). @p deadline_ms bounds the *whole* frame; 0 waits
     * forever. On Timeout/Eof partial bytes are discarded — a torn
     * frame is a broken connection, not a resumable state.
     */
    support::IoStatus recvFrame(std::string &payload,
                                unsigned deadline_ms);

    /** shutdown(2) both directions: unblocks any reader immediately. */
    void shutdownBoth();

    void close();

    uint64_t bytesSent() const { return bytesSent_; }
    uint64_t bytesReceived() const { return bytesReceived_; }

  private:
    support::IoStatus readExact(std::string &out, size_t bytes,
                                unsigned deadline_ms);

    int fd_ = -1;
    uint64_t bytesSent_ = 0;
    uint64_t bytesReceived_ = 0;
};

/**
 * The daemon's AF_UNIX listening socket. Binds, listens, and unlinks
 * the filesystem path on close, so a cleanly stopped daemon leaves no
 * stale socket behind. A stale file from a *crashed* daemon is
 * detected at bind time: if nothing accepts connections on it, it is
 * unlinked and the bind retried.
 */
class UnixListener
{
  public:
    UnixListener() = default;
    ~UnixListener();

    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    /** Binds + listens on @p path; false with @p error. */
    bool listenOn(const std::string &path, std::string &error);

    /**
     * Accepts one connection, waiting up to @p timeout_ms (0 =
     * forever). Returns a CLOEXEC fd >= 0, or -1 on timeout / closed
     * listener.
     */
    int acceptClient(unsigned timeout_ms);

    void close();

  private:
    int fd_ = -1;
    std::string path_;
};

/**
 * Connects to the daemon socket at @p path. A refused connect (full
 * backlog, or a daemon mid-start) is retried for up to @p timeout_ms;
 * any other failure returns false at once with @p error.
 */
bool connectUnix(const std::string &path, unsigned timeout_ms, int &fd,
                 std::string &error);

} // namespace keq::service

#endif // KEQ_SERVICE_SOCKET_H
