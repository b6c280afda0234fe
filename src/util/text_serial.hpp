// Helpers for the line-oriented text serialization format used by model and
// stream persistence (io/model_io, io/stream_io).
//
// The format is whitespace-separated tokens with literal tags; doubles are
// written with 17 significant digits, which round-trips IEEE-754 doubles
// exactly. Readers throw DataError with the offending tag on any mismatch,
// so a truncated or corrupted file fails loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/parse_number.hpp"

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

/// Reads the next token as a `T` in the one number grammar
/// (util/parse_number.hpp), so a symbol id that does not fit `Symbol` is a
/// DataError naming `what`, never a wrapped id.
template <typename T>
T read_number(std::istream& in, const std::string& what) {
    const std::string token = read_token(in, what);
    if (const std::optional<T> value = parse_number<T>(token)) return *value;
    throw DataError("model file corrupt: '" + token + "' is not a valid " + what);
}

/// a * b for sizes read from a model file; a DataError when it overflows.
inline std::size_t checked_product(std::size_t a, std::size_t b) {
    std::size_t out = 0;
    if (__builtin_mul_overflow(a, b, &out)) throw DataError("model sizes overflow");
    return out;
}

/// a + b for sizes read from a model file; a DataError when it overflows.
inline std::size_t checked_sum(std::size_t a, std::size_t b) {
    std::size_t out = 0;
    if (__builtin_add_overflow(a, b, &out)) throw DataError("model sizes overflow");
    return out;
}

}  // namespace adiv
