// The one number grammar of every text format the system reads: model and
// stream files, the serve wire protocol, ensemble specs, OpenMetrics values,
// trace lines and command-line options.
//
// A number token is what std::from_chars consumes in full when it parses into
// the destination type itself: no leading whitespace or `+`, no hex, no
// trailing junk, a `-` only on signed and floating-point types, and a value
// that fits the type. Doubles use the general format, so subnormals, `inf`
// and `nan` parse and every 17-digit double reads back exactly. The parse is
// locale-independent.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>

namespace adiv {

/// `token` as a `T`, or nullopt when it is not a whole in-range `T`. Callers
/// build their error text only on nullopt, so a passing check costs nothing.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view token) noexcept {
    T value{};
    const char* const last = token.data() + token.size();
    const auto [end, ec] = std::from_chars(token.data(), last, value);
    if (ec != std::errc() || end != last) return std::nullopt;
    return value;
}

}  // namespace adiv
