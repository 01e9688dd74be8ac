/** @file Unit tests for the string utilities. */

#include <gtest/gtest.h>

#include "src/support/strings.h"

namespace keq::support {
namespace {

TEST(StringsTest, Trim)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim("hello"), "hello");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StringsTest, Split)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, SplitWhitespace)
{
    EXPECT_EQ(splitWhitespace("  a  b\tc \n"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(splitWhitespace("   ").empty());
    EXPECT_EQ(splitWhitespace("one"),
              (std::vector<std::string>{"one"}));
}

TEST(StringsTest, Affixes)
{
    EXPECT_TRUE(startsWith("%vr3_32", "%vr"));
    EXPECT_FALSE(startsWith("vr", "%vr"));
    EXPECT_TRUE(endsWith("file.cc", ".cc"));
    EXPECT_FALSE(endsWith("cc", "file.cc"));
}

TEST(StringsTest, ParseU64AcceptsOnlyInRangeDigits)
{
    uint64_t value = 7;
    EXPECT_TRUE(parseU64("0", value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", value));
    EXPECT_EQ(value, UINT64_MAX);
    EXPECT_TRUE(parseU64("0042", value));
    EXPECT_EQ(value, 42u);

    value = 7;
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                            "18446744073709551616",
                            "99999999999999999999999"}) {
        EXPECT_FALSE(parseU64(bad, value)) << "'" << bad << "'";
        EXPECT_EQ(value, 7u) << "a rejected parse leaves the output";
    }
}

TEST(StringsTest, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"solo"}, ", "), "solo");
}

} // namespace
} // namespace keq::support
