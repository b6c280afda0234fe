// Helpers for the line-oriented text serialization format used by model and
// stream persistence (io/model_io, io/stream_io).
//
// The format is whitespace-separated tokens with literal tags; doubles are
// written with 17 significant digits, which round-trips IEEE-754 doubles
// exactly. Readers throw DataError with the offending tag on any mismatch,
// so a truncated or corrupted file fails loudly.
#pragma once

#include <charconv>
#include <cstdint>
#include <iomanip>
#include <istream>
#include <ostream>
#include <string>

#include "util/error.hpp"

namespace adiv {

/// Writes a double with enough digits for exact round-tripping.
inline void write_double(std::ostream& out, double value) {
    out << std::setprecision(17) << value;
}

/// Reads the next whitespace-separated token; throws DataError at EOF.
inline std::string read_token(std::istream& in, const std::string& what) {
    std::string token;
    if (!(in >> token))
        throw DataError("model file truncated while reading " + what);
    return token;
}

/// Reads a token and requires it to equal `tag` exactly.
inline void expect_tag(std::istream& in, const std::string& tag) {
    const std::string token = read_token(in, "tag '" + tag + "'");
    require_data(token == tag,
                 "model file corrupt: expected '" + tag + "', found '" + token + "'");
}

/// Parses `token` as a `T` with std::from_chars, which must consume the whole
/// token: no sign on an unsigned value (so `-1` never wraps to 2^64 - 1), no
/// leading `+`, no hex, no trailing junk. Subnormal doubles parse exactly,
/// so every value write_double emits reads back.
template <typename T>
T parse_token(const std::string& token, const std::string& what) {
    T value{};
    const char* const last = token.data() + token.size();
    const auto [end, ec] = std::from_chars(token.data(), last, value);
    if (ec != std::errc() || end != last)
        throw DataError("model file corrupt: '" + token + "' is not a valid " + what);
    return value;
}

/// Reads an unsigned integer token.
inline std::uint64_t read_u64(std::istream& in, const std::string& what) {
    return parse_token<std::uint64_t>(read_token(in, what), what);
}

/// Reads a size_t token.
inline std::size_t read_size(std::istream& in, const std::string& what) {
    return parse_token<std::size_t>(read_token(in, what), what);
}

/// Reads a double token (general format; `inf` and `nan` included).
inline double read_double(std::istream& in, const std::string& what) {
    return parse_token<double>(read_token(in, what), what);
}

}  // namespace adiv
