#include "src/service/socket.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/smt/wire.h"

namespace keq::service {

using support::IoStatus;

namespace {

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Remaining budget for a deadline that started at @p start. */
int
remainingMs(int64_t start, unsigned deadline_ms)
{
    if (deadline_ms == 0)
        return -1; // poll: wait forever
    int64_t elapsed = nowMs() - start;
    int64_t left = static_cast<int64_t>(deadline_ms) - elapsed;
    return left <= 0 ? 0 : static_cast<int>(left);
}

bool
fillSockaddr(const std::string &path, sockaddr_un &addr,
             std::string &error)
{
    if (path.empty()) {
        error = "empty socket path";
        return false;
    }
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        error = "socket path longer than sun_path (" + path + ")";
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

// --- WireChannel ---------------------------------------------------------

WireChannel::~WireChannel() { close(); }

WireChannel::WireChannel(WireChannel &&rhs) noexcept
    : fd_(rhs.fd_), bytesSent_(rhs.bytesSent_),
      bytesReceived_(rhs.bytesReceived_)
{
    rhs.fd_ = -1;
}

WireChannel &
WireChannel::operator=(WireChannel &&rhs) noexcept
{
    if (this != &rhs) {
        close();
        fd_ = rhs.fd_;
        bytesSent_ = rhs.bytesSent_;
        bytesReceived_ = rhs.bytesReceived_;
        rhs.fd_ = -1;
    }
    return *this;
}

void
WireChannel::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
WireChannel::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

bool
WireChannel::sendFrame(const std::string &frame)
{
    if (fd_ < 0)
        return false;
    // Short writes resume from the offset; EINTR retries. A socket
    // under pressure may accept only part of a frame per send.
    size_t off = 0;
    while (off < frame.size()) {
        ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    bytesSent_ += frame.size();
    return true;
}

IoStatus
WireChannel::readExact(std::string &out, size_t bytes,
                       unsigned deadline_ms)
{
    int64_t start = nowMs();
    size_t got = 0;
    while (got < bytes) {
        pollfd pfd{fd_, POLLIN, 0};
        int wait = remainingMs(start, deadline_ms);
        if (deadline_ms != 0 && wait == 0)
            return IoStatus::Timeout;
        int ready = ::poll(&pfd, 1, wait);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return IoStatus::Error;
        }
        if (ready == 0)
            return IoStatus::Timeout;
        char buf[4096];
        size_t want = std::min(bytes - got, sizeof buf);
        ssize_t n = ::recv(fd_, buf, want, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return IoStatus::Error;
        }
        if (n == 0)
            return IoStatus::Eof;
        out.append(buf, static_cast<size_t>(n));
        got += static_cast<size_t>(n);
    }
    return IoStatus::Ok;
}

IoStatus
WireChannel::recvFrame(std::string &payload, unsigned deadline_ms)
{
    if (fd_ < 0)
        return IoStatus::Error;
    std::string header;
    IoStatus status = readExact(header, 4, deadline_ms);
    if (status != IoStatus::Ok)
        return status;
    uint32_t length = 0;
    for (int i = 3; i >= 0; --i)
        length = (length << 8) | static_cast<uint8_t>(header[i]);
    if (length == 0 || length > smt::wire::kMaxFramePayload)
        return IoStatus::Error;
    payload.clear();
    payload.reserve(length);
    status = readExact(payload, length, deadline_ms);
    if (status == IoStatus::Ok)
        bytesReceived_ += 4 + static_cast<uint64_t>(length);
    return status;
}

// --- UnixListener --------------------------------------------------------

UnixListener::~UnixListener() { close(); }

bool
UnixListener::listenOn(const std::string &path, std::string &error)
{
    sockaddr_un addr{};
    if (!fillSockaddr(path, addr, error))
        return false;

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        if (errno == EADDRINUSE) {
            // A previous daemon may have crashed without unlinking. If
            // nothing answers on the socket, it is stale: remove and
            // retry once. A *live* daemon accepts the probe and we
            // refuse to steal its address.
            int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
            bool alive =
                probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) == 0;
            if (probe >= 0)
                ::close(probe);
            if (alive) {
                error = "address in use: a daemon is already "
                        "listening on " +
                        path;
                ::close(fd);
                return false;
            }
            ::unlink(path.c_str());
            if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0) {
                error = std::string("bind: ") + std::strerror(errno);
                ::close(fd);
                return false;
            }
        } else {
            error = std::string("bind: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
    }
    if (::listen(fd, 64) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        ::close(fd);
        ::unlink(path.c_str());
        return false;
    }
    fd_ = fd;
    path_ = path;
    return true;
}

int
UnixListener::acceptClient(unsigned timeout_ms)
{
    if (fd_ < 0)
        return -1;
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1,
                       timeout_ms == 0 ? -1
                                       : static_cast<int>(timeout_ms));
    if (ready <= 0)
        return -1;
    return ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
}

void
UnixListener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        if (!path_.empty())
            ::unlink(path_.c_str());
        path_.clear();
    }
}

// --- connectUnix ---------------------------------------------------------

bool
connectUnix(const std::string &path, unsigned timeout_ms, int &fd,
            std::string &error)
{
    sockaddr_un addr{};
    if (!fillSockaddr(path, addr, error))
        return false;
    int sock = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (sock < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // AF_UNIX connects complete or fail immediately (the backlog is the
    // only wait), so a plain blocking connect with a retry loop on
    // EAGAIN is enough; timeout_ms bounds the backlog wait.
    int64_t start = nowMs();
    for (;;) {
        if (::connect(sock, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0) {
            fd = sock;
            return true;
        }
        if (errno != EAGAIN && errno != EINTR &&
            errno != ECONNREFUSED) {
            break;
        }
        if (errno == ECONNREFUSED || errno == EAGAIN) {
            // Full backlog (or the daemon is mid-start). Retry within
            // the budget.
            if (timeout_ms == 0 ||
                nowMs() - start >= static_cast<int64_t>(timeout_ms))
                break;
            struct timespec ts{0, 10 * 1000 * 1000}; // 10 ms
            ::nanosleep(&ts, nullptr);
        }
    }
    error = std::string("connect ") + path + ": " + std::strerror(errno);
    ::close(sock);
    return false;
}

} // namespace keq::service
