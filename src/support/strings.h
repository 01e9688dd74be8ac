#ifndef KEQ_SUPPORT_STRINGS_H
#define KEQ_SUPPORT_STRINGS_H

/**
 * @file
 * Small string utilities used by the parsers and printers.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace keq::support {

/** Removes leading and trailing whitespace. */
std::string_view trim(std::string_view text);

/** Splits on a separator character; empty pieces are kept. */
std::vector<std::string> split(std::string_view text, char separator);

/** Splits on arbitrary whitespace runs; empty pieces are dropped. */
std::vector<std::string> splitWhitespace(std::string_view text);

bool startsWith(std::string_view text, std::string_view prefix);
bool endsWith(std::string_view text, std::string_view suffix);

/**
 * Parses a decimal uint64: one or more ASCII digits and nothing else
 * (no sign, no whitespace). @return false, leaving @p out untouched,
 * on any other text or a value past 2^64-1.
 */
bool parseU64(std::string_view text, uint64_t &out);

/** Joins pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 std::string_view separator);

} // namespace keq::support

#endif // KEQ_SUPPORT_STRINGS_H
