#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace adiv {
namespace {

CliParser make_parser() {
    CliParser cli("prog", "test program");
    cli.add_option("count", "5", "how many");
    cli.add_option("name", "default", "a name");
    cli.add_option("ratio", "0.5", "a ratio");
    cli.add_flag("verbose", "talk more");
    return cli;
}

TEST(CliParser, DefaultsApplyWhenAbsent) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_EQ(cli.get("name"), "default");
    EXPECT_EQ(cli.get_number<int>("count"), 5);
    EXPECT_DOUBLE_EQ(cli.get_number<double>("ratio"), 0.5);
    EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(CliParser, ParsesSpaceSeparatedValue) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--count", "42"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_EQ(cli.get_number<int>("count"), 42);
}

TEST(CliParser, ParsesEqualsSeparatedValue) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--name=alice"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_EQ(cli.get("name"), "alice");
}

TEST(CliParser, ParsesFlag) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--verbose"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(CliParser, CollectsPositionals) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "one", "--count", "3", "two"};
    ASSERT_TRUE(cli.parse(5, argv));
    ASSERT_EQ(cli.positionals().size(), 2u);
    EXPECT_EQ(cli.positionals()[0], "one");
    EXPECT_EQ(cli.positionals()[1], "two");
}

TEST(CliParser, UnknownOptionThrows) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--bogus", "1"};
    EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
}

TEST(CliParser, MissingValueThrows) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--count"};
    EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(CliParser, FlagWithValueThrows) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--verbose=yes"};
    EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(CliParser, NonNumericIntThrows) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--count", "abc"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_THROW((void)cli.get_number<int>("count"), InvalidArgument);
}

/// A parser whose --count, --ratio and --port options hold the given texts.
CliParser parsed_with(const char* count, const char* ratio, const char* port) {
    CliParser cli = make_parser();
    cli.add_option("port", "0", "a port");
    const char* argv[] = {"prog", "--count", count, "--ratio", ratio, "--port", port};
    EXPECT_TRUE(cli.parse(7, argv));
    return cli;
}

TEST(CliParser, NumbersMustFitTheirTypeAndNeverWrap) {
    EXPECT_EQ(parsed_with("5", "0.5", "65535").get_number<std::uint16_t>("port"),
              65535u);
    EXPECT_THROW((void)parsed_with("5", "0.5", "70000").get_number<std::uint16_t>("port"),
                 InvalidArgument);
    for (const char* count : {"-1", "99999999999999999999", " 5", "+5", "0x5", "5 "})
        EXPECT_THROW((void)parsed_with(count, "0.5", "0").get_number<std::size_t>("count"),
                     InvalidArgument)
            << "'" << count << "'";
    EXPECT_EQ(parsed_with("-1", "0.5", "0").get_number<int>("count"), -1);
    for (const char* ratio : {" 0.5", "+0.5", "0.5x", "1e999", ""})
        EXPECT_THROW((void)parsed_with("5", ratio, "0").get_number<double>("ratio"),
                     InvalidArgument)
            << "'" << ratio << "'";
    EXPECT_EQ(parsed_with("5", "5e-324", "0").get_number<double>("ratio"),
              std::numeric_limits<double>::denorm_min());
}

TEST(CliParser, BadNumberMessageNamesTheOptionAndRange) {
    try {
        (void)parsed_with("5", "0.5", "70000").get_number<std::uint16_t>("port");
        FAIL() << "70000 fit a uint16_t";
    } catch (const InvalidArgument& e) {
        EXPECT_STREQ(e.what(),
                     "option --port expects an integer in [0, 65535], got '70000'");
    }
}

TEST(CliParser, HelpReturnsFalse) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--help"};
    EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliParser, HelpTextMentionsOptions) {
    CliParser cli = make_parser();
    const std::string help = cli.help_text();
    EXPECT_NE(help.find("--count"), std::string::npos);
    EXPECT_NE(help.find("--verbose"), std::string::npos);
    EXPECT_NE(help.find("test program"), std::string::npos);
}

TEST(CliParser, GetOnFlagThrows) {
    CliParser cli = make_parser();
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_THROW((void)cli.get("verbose"), InvalidArgument);
    EXPECT_THROW((void)cli.get_flag("count"), InvalidArgument);
}

TEST(CliParser, DuplicateRegistrationThrows) {
    CliParser cli("p", "s");
    cli.add_option("x", "1", "h");
    EXPECT_THROW(cli.add_option("x", "2", "h"), InvalidArgument);
    EXPECT_THROW(cli.add_flag("x", "h"), InvalidArgument);
}

}  // namespace
}  // namespace adiv
