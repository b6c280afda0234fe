#include "util/text_serial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace adiv {
namespace {

TEST(TextSerial, DoubleRoundTripsExactly) {
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        const double value = rng.normal() * std::pow(10.0, rng.between(-12, 12));
        std::ostringstream out;
        write_double(out, value);
        std::istringstream in(out.str());
        EXPECT_EQ(read_number<double>(in, "value"), value);
    }
}

TEST(TextSerial, SpecialDoubleValues) {
    for (double value : {0.0, -0.0, 1e-300, -1e300}) {
        std::ostringstream out;
        write_double(out, value);
        std::istringstream in(out.str());
        EXPECT_EQ(read_number<double>(in, "value"), value);
    }
}

TEST(TextSerial, ReadTokenThrowsAtEof) {
    std::istringstream in("");
    EXPECT_THROW((void)read_token(in, "anything"), DataError);
}

TEST(TextSerial, ExpectTagMatches) {
    std::istringstream in("  hello world");
    EXPECT_NO_THROW(expect_tag(in, "hello"));
    EXPECT_THROW(expect_tag(in, "planet"), DataError);
}

TEST(TextSerial, ReadU64ValidatesInput) {
    std::istringstream good("12345");
    EXPECT_EQ(read_number<std::uint64_t>(good, "n"), 12345u);
    std::istringstream bad("12x45");
    EXPECT_THROW((void)read_number<std::uint64_t>(bad, "n"), DataError);
    std::istringstream words("abc");
    EXPECT_THROW((void)read_number<std::uint64_t>(words, "n"), DataError);
}

TEST(TextSerial, ReadDoubleValidatesInput) {
    std::istringstream good("-2.5e3");
    EXPECT_DOUBLE_EQ(read_number<double>(good, "x"), -2500.0);
    std::istringstream bad("1.5zzz");
    EXPECT_THROW((void)read_number<double>(bad, "x"), DataError);
}

TEST(Stopwatch, MeasuresElapsedTime) {
    Stopwatch sw;
    EXPECT_GE(sw.seconds(), 0.0);
    const double first = sw.seconds();
    // Busy-wait a tiny amount; monotonicity is what matters.
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
    EXPECT_GE(sw.seconds(), first);
    sw.restart();
    EXPECT_LT(sw.seconds(), 1.0);
    EXPECT_GE(sw.millis(), 0.0);
}

TEST(Stopwatch, LapMeasuresSinceLastLap) {
    Stopwatch sw;
    const double lap1 = sw.lap();
    EXPECT_GE(lap1, 0.0);
    const double lap2 = sw.lap();
    EXPECT_GE(lap2, 0.0);
    // Laps are disjoint intervals: their sum cannot exceed the total.
    EXPECT_LE(lap1 + lap2, sw.seconds() + 1e-9);
    // restart() resets the lap origin along with the start time.
    sw.restart();
    EXPECT_LT(sw.lap(), 1.0);
}

TEST(ErrorHelpers, RequireThrowsWithMessage) {
    EXPECT_NO_THROW(require(true, "fine"));
    try {
        require(false, "my message");
        FAIL() << "require did not throw";
    } catch (const InvalidArgument& e) {
        EXPECT_STREQ(e.what(), "my message");
    }
    EXPECT_THROW(require_data(false, "bad data"), DataError);
}

}  // namespace
}  // namespace adiv
