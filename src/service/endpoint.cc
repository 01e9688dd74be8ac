#include "src/service/endpoint.h"

namespace keq::service {

Endpoint
unixEndpoint(std::string path)
{
    return Endpoint{std::move(path)};
}

std::string
endpointToString(const Endpoint &endpoint)
{
    return "unix:" + endpoint.path;
}

bool
parseEndpoint(const std::string &spec, Endpoint &out,
              std::string &error)
{
    out = Endpoint{};
    if (spec.empty()) {
        error = "empty endpoint";
        return false;
    }
    if (spec.find(',') != std::string::npos) {
        error = "endpoint '" + spec +
                "': one daemon socket, not a comma-separated list";
        return false;
    }
    if (spec.rfind("unix:", 0) == 0) {
        out.path = spec.substr(5);
        if (out.path.empty()) {
            error = "endpoint '" + spec + "': missing socket path";
            return false;
        }
        return true;
    }
    // Any other scheme-looking prefix is a typo or a transport keq does
    // not have, not a bare path: a bare unix path never contains
    // "scheme:" before its first '/'.
    size_t colon = spec.find(':');
    if (colon != std::string::npos && spec.find('/') > colon) {
        error = "endpoint '" + spec + "': unknown scheme '" +
                spec.substr(0, colon) + ":' (use unix:PATH)";
        return false;
    }
    out.path = spec;
    return true;
}

} // namespace keq::service
