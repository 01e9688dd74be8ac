/** @file Unix-socket transport: endpoint parsing (valid + malformed
 *  table), the listener round trip, a bounded connect to a dead
 *  socket, and the fragmenting fault-injection property — wire frames
 *  reassemble byte-identically no matter how the kernel (or a hostile
 *  writer) splits them, torn frames are typed Eof, and a silent peer
 *  is a typed Timeout. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/service/endpoint.h"
#include "src/service/socket.h"
#include "src/smt/wire.h"
#include "src/support/rng.h"

namespace keq::service {
namespace {

namespace wire = smt::wire;
using support::IoStatus;

std::string
tempSocket(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("keqt-" + stem + "-" + std::to_string(::getpid()) +
             ".sock"))
        .string();
}

// ---- endpoint grammar ----

TEST(EndpointTest, ParsesUnixForms)
{
    Endpoint endpoint;
    std::string error;
    ASSERT_TRUE(parseEndpoint("unix:/tmp/keqd.sock", endpoint, error))
        << error;
    EXPECT_EQ(endpoint.path, "/tmp/keqd.sock");

    // Legacy bare path (what --daemon=PATH always meant).
    ASSERT_TRUE(parseEndpoint("/tmp/keqd.sock", endpoint, error))
        << error;
    EXPECT_EQ(endpoint.path, "/tmp/keqd.sock");

    // A relative bare path is also a unix path.
    ASSERT_TRUE(parseEndpoint("keqd.sock", endpoint, error)) << error;
    EXPECT_EQ(endpoint.path, "keqd.sock");
}

TEST(EndpointTest, ToStringRoundTrips)
{
    for (const char *spec : {"unix:/tmp/a.sock", "unix:relative.sock"}) {
        Endpoint endpoint;
        std::string error;
        ASSERT_TRUE(parseEndpoint(spec, endpoint, error)) << error;
        EXPECT_EQ(endpointToString(endpoint), spec);
        Endpoint again;
        ASSERT_TRUE(
            parseEndpoint(endpointToString(endpoint), again, error))
            << error;
        EXPECT_EQ(again, endpoint);
    }
}

/** Malformed-spec table: every row must fail with a diagnostic that
 *  names the offending spec — the CLI forwards these verbatim with
 *  exit 64, so they must be pointed enough to act on. A `tcp:` spec
 *  and a comma list are among them: the daemon serves one Unix
 *  socket. */
TEST(EndpointTest, MalformedSpecsFailWithPointedDiagnostics)
{
    struct Row
    {
        const char *spec;
        const char *needle; ///< required error fragment
    };
    const Row rows[] = {
        {"", "empty endpoint"},
        {"unix:", "missing socket path"},
        {"tcp:127.0.0.1:7461", "unknown scheme 'tcp:'"},
        {"tcp:[::1]:7461", "unknown scheme 'tcp:'"},
        {"udp:host:7461", "unknown scheme 'udp:'"},
        {"unix:/a.sock,unix:/b.sock", "comma-separated list"},
        {"/a.sock,/b.sock", "comma-separated list"},
        {"http://host:7461", "unknown scheme 'http:'"},
    };
    for (const Row &row : rows) {
        Endpoint endpoint;
        std::string error;
        EXPECT_FALSE(parseEndpoint(row.spec, endpoint, error))
            << "'" << row.spec << "' parsed";
        EXPECT_NE(error.find(row.needle), std::string::npos)
            << "'" << row.spec << "' produced unhelpful error: "
            << error;
        if (row.spec[0] != '\0')
            EXPECT_NE(error.find(row.spec), std::string::npos)
                << "error does not name the offending spec: " << error;
    }
}

// ---- listener ----

/** One frame each way over a connection accepted by a UnixListener,
 *  which unlinks its socket file on close. */
TEST(TransportTest, UnixListenerRoundTrip)
{
    std::string path = tempSocket("rt");
    UnixListener listener;
    std::string error;
    ASSERT_TRUE(listener.listenOn(path, error)) << error;

    std::thread server([&] {
        int fd = listener.acceptClient(5000);
        ASSERT_GE(fd, 0) << "accept timed out";
        WireChannel channel(fd);
        std::string payload;
        ASSERT_EQ(channel.recvFrame(payload, 5000), IoStatus::Ok);
        ASSERT_TRUE(channel.sendFrame(
            wire::frameBytes(wire::FrameType::Error,
                             "echo:" + payload.substr(1))));
    });

    int fd = -1;
    ASSERT_TRUE(connectUnix(path, 2000, fd, error)) << error;
    WireChannel channel(fd);
    ASSERT_TRUE(channel.sendFrame(
        wire::frameBytes(wire::FrameType::Error, "hello-payload")));
    std::string payload;
    ASSERT_EQ(channel.recvFrame(payload, 5000), IoStatus::Ok);
    EXPECT_NE(payload.find("echo:hello-payload"), std::string::npos);
    server.join();

    listener.close();
    EXPECT_FALSE(std::filesystem::exists(path))
        << "socket file not unlinked on close";
}

/** A socket file nobody accepts on (a crashed daemon's leftover)
 *  refuses the connect; the client retries only within its budget. */
TEST(TransportTest, ConnectToDeadSocketFailsWithinBudget)
{
    std::string path = tempSocket("dead");
    int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(stale, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  path.c_str());
    ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr *>(&addr),
                     sizeof addr),
              0);
    ::close(stale); // bound, never listened: connects are refused

    int fd = -1;
    std::string error;
    auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(connectUnix(path, 300, fd, error));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    EXPECT_GE(elapsed, 250) << "refused connect was not retried";
    EXPECT_LT(elapsed, 5000) << "refused connect must not hang";
    EXPECT_NE(error.find(path), std::string::npos) << error;
    ::unlink(path.c_str());

    // A path that does not exist at all fails at once.
    start = std::chrono::steady_clock::now();
    EXPECT_FALSE(connectUnix(path, 2000, fd, error));
    elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    EXPECT_LT(elapsed, 1000);
}

// ---- fragmentation / short-I/O fault injection ----

/** A connected AF_UNIX socketpair wrapped as two WireChannels. */
struct ChannelPair
{
    ChannelPair()
    {
        int fds[2] = {-1, -1};
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            a = WireChannel(fds[0]);
            b = WireChannel(fds[1]);
        }
    }
    WireChannel a;
    WireChannel b;
};

/**
 * The fragmenting fault-injection transport: writes @p bytes to raw
 * @p fd split at seeded-random boundaries (1..maxChunk bytes each,
 * with a tiny sleep between some chunks so the reader really observes
 * partial frames). This is what a congested socket does to frames;
 * recvFrame's short-read loop must be indifferent to it.
 */
void
writeFragmented(int fd, const std::string &bytes, support::Rng &rng,
                size_t maxChunk)
{
    size_t offset = 0;
    while (offset < bytes.size()) {
        size_t chunk =
            1 + rng.below(std::min(maxChunk, bytes.size() - offset));
        ssize_t wrote =
            ::send(fd, bytes.data() + offset, chunk, MSG_NOSIGNAL);
        ASSERT_GT(wrote, 0) << "fragmented send failed";
        offset += static_cast<size_t>(wrote);
        if (rng.below(4) == 0)
            ::usleep(500);
    }
}

TEST(TransportTest, FramesSurviveArbitraryFragmentation)
{
    ChannelPair pair;
    ASSERT_TRUE(pair.a.valid());

    // Frames from tiny to bigger-than-any-single-read, including a
    // payload crossing the typical 4 KiB pipe/socket buffer boundary.
    std::vector<std::string> payloads;
    support::Rng gen(0x5e41ce01ull);
    for (size_t size : {size_t(1), size_t(2), size_t(64), size_t(4095),
                        size_t(4096), size_t(4097), size_t(70000)}) {
        std::string payload;
        payload.reserve(size);
        for (size_t i = 0; i < size; ++i)
            payload.push_back(static_cast<char>(gen.below(256)));
        payloads.push_back(std::move(payload));
    }

    support::Rng rng(0x5e41ce02ull);
    std::thread writer([&] {
        for (const std::string &payload : payloads) {
            std::string framed =
                wire::frameBytes(wire::FrameType::Error, payload);
            writeFragmented(pair.a.fd(), framed, rng, 113);
        }
    });

    for (const std::string &expected : payloads) {
        std::string payload;
        ASSERT_EQ(pair.b.recvFrame(payload, 10000), IoStatus::Ok);
        // recvFrame returns type byte + body; compare the body.
        ASSERT_GE(payload.size(), 1u);
        EXPECT_EQ(payload.substr(1), expected)
            << "frame of " << expected.size()
            << " bytes reassembled differently";
    }
    writer.join();
}

/** Same property, full codec: a SubmitJob frame fragmented at hostile
 *  boundaries decodes identically to the original. */
TEST(TransportTest, SubmitJobSurvivesFragmentation)
{
    ChannelPair pair;
    ASSERT_TRUE(pair.a.valid());

    wire::SubmitJobFrame job;
    job.jobId = 99;
    job.function = "@frag";
    job.moduleText = std::string(20000, 'm') + "\nend";
    job.options.smtTimeoutMs = 777;
    std::string framed = wire::encodeSubmitJob(job);

    support::Rng rng(0x5e41ce03ull);
    std::thread writer(
        [&] { writeFragmented(pair.a.fd(), framed, rng, 7); });

    std::string payload;
    ASSERT_EQ(pair.b.recvFrame(payload, 10000), IoStatus::Ok);
    writer.join();

    wire::FrameType type{};
    std::string body;
    ASSERT_TRUE(wire::splitFrame(payload, type, body));
    EXPECT_EQ(type, wire::FrameType::SubmitJob);
    wire::SubmitJobFrame out;
    std::string error;
    ASSERT_TRUE(wire::decodeSubmitJob(body, out, error)) << error;
    EXPECT_EQ(out.jobId, job.jobId);
    EXPECT_EQ(out.moduleText, job.moduleText);
    EXPECT_EQ(out.options.smtTimeoutMs, 777u);
}

TEST(TransportTest, TruncatedFrameIsTypedEof)
{
    ChannelPair pair;
    ASSERT_TRUE(pair.a.valid());
    // Announce 100 bytes, deliver 10, hang up.
    std::string framed =
        wire::frameBytes(wire::FrameType::Error, std::string(99, 'x'));
    ASSERT_TRUE(::send(pair.a.fd(), framed.data(), 14, MSG_NOSIGNAL) ==
                14);
    pair.a.close();

    std::string payload;
    EXPECT_EQ(pair.b.recvFrame(payload, 2000), IoStatus::Eof)
        << "a torn frame must be Eof, not Ok or a hang";
}

TEST(TransportTest, SilentPeerIsTypedTimeout)
{
    ChannelPair pair;
    ASSERT_TRUE(pair.a.valid());
    std::string payload;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(pair.b.recvFrame(payload, 200), IoStatus::Timeout);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    EXPECT_GE(elapsed, 150);
    EXPECT_LT(elapsed, 5000);
}

} // namespace
} // namespace keq::service
