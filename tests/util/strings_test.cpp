#include "src/util/strings.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

namespace anyqos::util {
namespace {

TEST(Split, SplitsOnSeparator) {
  const auto fields = split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto fields = split("a,,c,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(Split, SingleFieldWithoutSeparator) {
  const auto fields = split("plain", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "plain");
}

TEST(Split, EmptyInputGivesOneEmptyField) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Trim, AllWhitespaceBecomesEmpty) {
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(ParseDouble, ParsesPlainAndNegativeNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1.5").value(), -1.5);
  EXPECT_DOUBLE_EQ(parse_double(" 42 ").value(), 42.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(ParseUnsigned, ParsesAndRejectsSigns) {
  EXPECT_EQ(parse_unsigned("17").value(), 17ull);
  EXPECT_EQ(parse_unsigned("0").value(), 0ull);
  EXPECT_FALSE(parse_unsigned("-1").has_value());
  EXPECT_FALSE(parse_unsigned("+1").has_value());
  EXPECT_FALSE(parse_unsigned("12.5").has_value());
}

TEST(StartsWith, MatchesPrefixes) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(FormatFixed, FormatsRequestedDigits) {
  EXPECT_EQ(format_fixed(0.8379, 2), "0.84");
  EXPECT_EQ(format_fixed(1.0, 6), "1.000000");
  EXPECT_EQ(format_fixed(-2.5, 1), "-2.5");
}

// format_g17 must print exactly what printf("%.17g") prints: every artifact
// that went through the old snprintf writers stays byte-identical.
TEST(FormatG17, MatchesPrintfOnASeededSample) {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  const auto check = [&](double value) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.17g", value);
    ++checked;
    if (format_g17(value).view() != expected) {
      if (mismatches++ == 0) {
        first_mismatch = std::string(expected) + " vs " + std::string(format_g17(value).view());
      }
    }
  };
  using limits = std::numeric_limits<double>;
  for (const double value :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1e15, 1e16, 1e17, 1e22, 1e-5, 123456789.125,
        limits::max(), limits::lowest(), limits::min(), -limits::min(), limits::denorm_min(),
        -limits::denorm_min(), limits::infinity(), -limits::infinity(), limits::quiet_NaN(),
        -limits::quiet_NaN()}) {
    check(value);
  }
  std::mt19937_64 bits(0x5EED'F0A7);
  for (int i = 0; i < 400'000; ++i) {
    check(std::bit_cast<double>(bits()));  // every exponent, NaNs and infinities
  }
  for (int i = 0; i < 100'000; ++i) {
    // Exponent field zero: subnormals of either sign.
    check(std::bit_cast<double>(bits() & 0x800F'FFFF'FFFF'FFFFULL));
  }
  std::uniform_real_distribution<double> uniform(-1.0e6, 1.0e6);
  for (int i = 0; i < 300'000; ++i) {
    check(uniform(bits));
  }
  for (int i = 0; i < 200'000; ++i) {
    // Integers of every magnitude up to 2^63.
    check(static_cast<double>(static_cast<std::int64_t>(bits()) >> (bits() % 64)));
  }
  EXPECT_EQ(checked, 1'000'021u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

}  // namespace
}  // namespace anyqos::util
