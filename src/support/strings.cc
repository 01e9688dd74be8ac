#include "src/support/strings.h"

#include <cctype>

namespace keq::support {

std::string_view
trim(std::string_view text)
{
    size_t begin = 0;
    while (begin < text.size() &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    size_t end = text.size();
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

std::vector<std::string>
split(std::string_view text, char separator)
{
    std::vector<std::string> pieces;
    size_t start = 0;
    while (true) {
        size_t pos = text.find(separator, start);
        if (pos == std::string_view::npos) {
            pieces.emplace_back(text.substr(start));
            return pieces;
        }
        pieces.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> pieces;
    size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (i > start)
            pieces.emplace_back(text.substr(start, i - start));
    }
    return pieces;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

bool
parseU64(std::string_view text, uint64_t &out)
{
    if (text.empty())
        return false;
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

std::string
join(const std::vector<std::string> &pieces, std::string_view separator)
{
    std::string out;
    for (size_t i = 0; i < pieces.size(); ++i) {
        if (i > 0)
            out += separator;
        out += pieces[i];
    }
    return out;
}

} // namespace keq::support
