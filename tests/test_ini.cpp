#include "util/ini.h"

#include <gtest/gtest.h>

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

TEST(Ini, SaveAndLoadFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "xrbench_ini_test.ini";
  IniDocument doc;
  doc.add_section("s").set("k", "v");
  doc.save(path);
  const auto loaded = IniDocument::load(path);
  EXPECT_EQ(loaded.section("s").get("k"), "v");
  std::filesystem::remove(path);
  EXPECT_THROW(IniDocument::load(path), std::runtime_error);
}

}  // namespace
}  // namespace xrbench::util
