#ifndef KEQ_SERVICE_ENDPOINT_H
#define KEQ_SERVICE_ENDPOINT_H

/**
 * @file
 * Service endpoint addressing: the daemon's Unix socket.
 *
 * keqd `--socket=`, keqc `--daemon=`, ServerOptions::listen and
 * DaemonClientOptions::endpoints all name one AF_UNIX stream socket,
 * spelled either way:
 *
 *   unix:/run/keqd.sock        explicit scheme
 *   /run/keqd.sock             bare path == unix:
 *
 * Parsing is strict and the errors are pointed: the CLIs turn a false
 * return into exit 64 (EX_USAGE) quoting @p error verbatim, so a typo
 * (or a `tcp:` spec, or a comma list) names the offending spec, not
 * "usage:".
 */

#include <string>

namespace keq::service {

struct Endpoint
{
    std::string path; ///< filesystem path of the AF_UNIX socket

    bool operator==(const Endpoint &rhs) const { return path == rhs.path; }
};

Endpoint unixEndpoint(std::string path);

/** Canonical spelling, `unix:PATH` (round-trips through parseEndpoint). */
std::string endpointToString(const Endpoint &endpoint);

/**
 * Parses one endpoint spec. False with a pointed @p error (always
 * quoting the offending spec) on an empty spec, `unix:` with no path,
 * any other scheme (`tcp:` included), or a comma-separated list.
 */
bool parseEndpoint(const std::string &spec, Endpoint &out,
                   std::string &error);

} // namespace keq::service

#endif // KEQ_SERVICE_ENDPOINT_H
