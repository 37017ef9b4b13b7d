#include "util/ini.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

namespace xrbench::util {
namespace {

TEST(Ini, ParsesSectionsAndEntries) {
  const auto doc = IniDocument::parse(
      "[alpha]\n"
      "x = 1\n"
      "name = hello world\n"
      "\n"
      "[beta]\n"
      "y = 2.5\n");
  EXPECT_TRUE(doc.has_section("alpha"));
  EXPECT_TRUE(doc.has_section("beta"));
  EXPECT_FALSE(doc.has_section("gamma"));
  EXPECT_EQ(doc.section("alpha").get("name"), "hello world");
  EXPECT_EQ(doc.section("alpha").get_int("x"), 1);
  EXPECT_DOUBLE_EQ(doc.section("beta").get_double("y"), 2.5);
}

TEST(Ini, CommentsAndWhitespace) {
  const auto doc = IniDocument::parse(
      "# full-line comment\n"
      "  [sec]   \n"
      "  key   =   spaced value   ; trailing comment\n"
      "; another comment\n");
  EXPECT_EQ(doc.section("sec").get("key"), "spaced value");
}

TEST(Ini, RepeatedSectionsKeptInOrder) {
  const auto doc = IniDocument::parse(
      "[m]\nid = 1\n[m]\nid = 2\n[m]\nid = 3\n");
  const auto secs = doc.sections("m");
  ASSERT_EQ(secs.size(), 3u);
  EXPECT_EQ(secs[0]->get_int("id"), 1);
  EXPECT_EQ(secs[2]->get_int("id"), 3);
  EXPECT_THROW(doc.section("m"), std::out_of_range);  // ambiguous
}

TEST(Ini, DuplicateKeysLastWins) {
  const auto doc = IniDocument::parse("[s]\nk = a\nk = b\n");
  EXPECT_EQ(doc.section("s").get("k"), "b");
  EXPECT_EQ(doc.section("s").entries.size(), 1u);
}

TEST(Ini, MalformedInputThrowsWithLineNumbers) {
  EXPECT_THROW(IniDocument::parse("key = before section\n"),
               std::invalid_argument);
  EXPECT_THROW(IniDocument::parse("[s]\nno equals sign\n"),
               std::invalid_argument);
  EXPECT_THROW(IniDocument::parse("[unterminated\n"), std::invalid_argument);
}

TEST(Ini, MissingKeyOrSectionThrows) {
  const auto doc = IniDocument::parse("[s]\nk = 1\n");
  EXPECT_THROW(doc.section("s").get("missing"), std::out_of_range);
  EXPECT_THROW(doc.section("missing"), std::out_of_range);
  EXPECT_EQ(doc.section("s").get_or("missing", "fb"), "fb");
}

TEST(Ini, TypedGettersValidate) {
  const auto doc = IniDocument::parse(
      "[s]\nnum = 12\nflt = 1.5e3\nb1 = true\nb2 = OFF\nbad = abc\n");
  const auto& s = doc.section("s");
  EXPECT_EQ(s.get_int("num"), 12);
  EXPECT_DOUBLE_EQ(s.get_double("flt"), 1500.0);
  EXPECT_TRUE(s.get_bool("b1"));
  EXPECT_FALSE(s.get_bool("b2"));
  EXPECT_THROW(s.get_int("bad"), std::invalid_argument);
  EXPECT_THROW(s.get_double("bad"), std::invalid_argument);
  EXPECT_THROW(s.get_bool("bad"), std::invalid_argument);
  EXPECT_THROW(s.get_int("flt"), std::invalid_argument);  // trailing 'e3'? no:
}

TEST(Ini, ParseNumberReadsExactlyOneFiniteNumber) {
  EXPECT_EQ(parse_number<double>(" 1.5e3 "), 1500.0);
  EXPECT_EQ(parse_number<int>("-7"), -7);
  EXPECT_EQ(parse_number<std::int64_t>("9000000000"), 9000000000);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"", " ", "abc", "12abc", "100ms", "1 2", "nan", "inf", "-inf",
        "1e400"}) {
    EXPECT_FALSE(parse_number<double>(bad)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_number<int>("3.7"));
  EXPECT_FALSE(parse_number<int>("4294967297"));
  EXPECT_FALSE(parse_number<std::int64_t>("99999999999999999999"));
  EXPECT_FALSE(parse_number<std::uint64_t>("-1"));
  EXPECT_FALSE(parse_number<std::uint64_t>(" -0"));
}

/// The message `read` throws, or "" when it throws nothing.
template <typename Read>
std::string rejection(Read read) {
  try {
    read();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(Ini, ReadersRejectAtTheSourceLine) {
  const auto doc =
      IniDocument::parse("[s]\nx = 5\n\ny = abc\nb = maybe\n", "test config");
  const auto& s = doc.section("s");
  EXPECT_EQ(rejection([&] { s.get_double("x", 0.0, 1.0); }),
            "test config line 2: x must be in [0, 1], got '5'");
  EXPECT_EQ(rejection([&] { s.get_double("x", 5.0, kUnbounded, true); }),
            "test config line 2: x must be > 5, got '5'");
  EXPECT_EQ(rejection([&] { s.get_int("x", 6); }),
            "test config line 2: x must be >= 6, got '5'");
  EXPECT_EQ(rejection([&] { s.get_int("y"); }),
            "test config line 4: y is not an integer: 'abc'");
  EXPECT_EQ(rejection([&] { s.get_bool("b"); }),
            "test config line 5: b is not a boolean: 'maybe'");
  EXPECT_EQ(rejection([&] {
              s.get_as("y", [](const std::string& v) -> int {
                throw std::invalid_argument("unknown name '" + v + "'");
              });
            }),
            "test config line 4: unknown name 'abc'");
  EXPECT_EQ(rejection([&] { s.get("missing"); }),
            "test config line 1: missing key 'missing' in [s]");
  EXPECT_EQ(rejection([&] { s.reject("", "a whole-section rule"); }),
            "test config line 1: a whole-section rule");
  EXPECT_EQ(rejection([&] { s.reject_unknown_keys({"x", "b"}); }),
            "test config line 4: unknown [s] key 'y'");
  EXPECT_NO_THROW(s.reject_unknown_keys({"b", "y", "x"}));
  EXPECT_EQ(rejection([] { IniDocument::parse("[s]\nno equals\n", "cfg"); }),
            "cfg line 2: expected 'key = value'");
}

TEST(Ini, RoundTripPreservesContent) {
  IniDocument doc;
  auto& a = doc.add_section("first");
  a.set("k", "v with spaces");
  a.set_int("n", -7);
  a.set_double("d", 0.125);
  // Values with no short decimal form must come back bit for bit, too.
  const double tenths = 0.1 + 0.2;
  const double third = 1.0 / 3.0;
  a.set_double("tenths", tenths);
  a.set_double("third", third);
  auto& b = doc.add_section("second");
  b.set("x", "y");
  const auto reparsed = IniDocument::parse(doc.to_string());
  EXPECT_EQ(reparsed.section("first").get("k"), "v with spaces");
  EXPECT_EQ(reparsed.section("first").get_int("n"), -7);
  EXPECT_EQ(reparsed.section("first").get_double("d"), 0.125);
  EXPECT_EQ(reparsed.section("first").get_double("tenths"), tenths);
  EXPECT_EQ(reparsed.section("first").get_double("third"), third);
  EXPECT_EQ(reparsed.section("second").get("x"), "y");
}

TEST(Ini, LoadsWrittenFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "xrbench_ini_test.ini";
  IniDocument doc;
  doc.add_section("s").set("k", "v");
  std::ofstream(path) << doc.to_string();
  const auto loaded = IniDocument::load(path);
  EXPECT_EQ(loaded.section("s").get("k"), "v");
  std::filesystem::remove(path);
  EXPECT_THROW(IniDocument::load(path), std::runtime_error);
}

}  // namespace
}  // namespace xrbench::util
