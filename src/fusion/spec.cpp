#include "fusion/spec.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <type_traits>

#include "util/error.hpp"
#include "util/parse_number.hpp"

namespace adiv::fusion {

namespace {

/// An option value as a `T` in the one number grammar
/// (util/parse_number.hpp): the whole value must convert and fit, so "0.5x",
/// "" and an `every` beyond size_t are rejected, never truncated or clamped.
template <class T>
T parse_option(const std::string& key, const std::string& value) {
    if (const std::optional<T> parsed = parse_number<T>(value)) return *parsed;
    throw InvalidArgument("ensemble option '" + key + "' has a malformed " +
                          (std::is_integral_v<T> ? "count" : "number") + " '" +
                          value + "'");
}

void require_unit_interval(const std::string& key, double value,
                           bool allow_one) {
    require(value > 0.0 && (allow_one ? value <= 1.0 : value < 1.0),
            "ensemble option '" + key + "' must lie in (0,1" +
                (allow_one ? "]" : ")"));
}

/// The shortest general-format text that parses back to `value` exactly:
/// the same as %g wherever %g round-trips, and never rounds 0.9999999 to 1.
std::string render_double(double value) {
    char buffer[32];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value,
                                         std::chars_format::general);
    ADIV_ASSERT(ec == std::errc());
    return std::string(buffer, end);
}

}  // namespace

const char* fusion_kind_name(FusionKind kind) noexcept {
    switch (kind) {
        case FusionKind::Union: return "union";
        case FusionKind::Intersect: return "intersect";
        case FusionKind::Vote: return "vote";
        case FusionKind::DempsterShafer: return "ds";
    }
    ADIV_UNREACHABLE("unhandled FusionKind");
}

FusionKind parse_fusion_kind(const std::string& token) {
    if (token == "union") return FusionKind::Union;
    if (token == "intersect") return FusionKind::Intersect;
    if (token == "vote") return FusionKind::Vote;
    if (token == "ds") return FusionKind::DempsterShafer;
    throw InvalidArgument("unknown fusion rule '" + token +
                          "' (union, intersect, vote, ds)");
}

bool is_ensemble_spec(const std::string& target) noexcept {
    return target.find('+') != std::string::npos ||
           target.find(';') != std::string::npos ||
           target.rfind("model=", 0) == 0;
}

EnsembleSpec parse_ensemble_spec(const std::string& token) {
    require(!token.empty(), "empty ensemble spec");
    require(token.find_first_of(" \t\n\r") == std::string::npos,
            "ensemble spec must be a single whitespace-free token");
    std::string_view rest(token);
    if (rest.rfind("model=", 0) == 0) rest.remove_prefix(6);

    // Member list: everything before the first ';'.
    const std::size_t semi = std::min(rest.find(';'), rest.size());
    std::string_view member_list = rest.substr(0, semi);
    EnsembleSpec spec;
    while (true) {
        const std::size_t plus =
            std::min(member_list.find('+'), member_list.size());
        const std::string member(member_list.substr(0, plus));
        require(!member.empty(), "ensemble spec has an empty member");
        require(member.find('=') == std::string::npos,
                "ensemble member '" + member + "' contains '='");
        require(std::find(spec.members.begin(), spec.members.end(), member) ==
                    spec.members.end(),
                "duplicate ensemble member '" + member + "'");
        spec.members.push_back(member);
        if (plus == member_list.size()) break;
        member_list.remove_prefix(plus + 1);
    }
    require(spec.members.size() >= 2,
            "an ensemble needs at least two members, got '" +
                std::string(rest.substr(0, semi)) + "'");

    // Options: ';'-separated key=value pairs, each key at most once.
    std::vector<std::string> seen;
    std::string_view options = rest.substr(semi);
    while (!options.empty()) {
        options.remove_prefix(1);  // the ';' that introduced this option
        const std::size_t next = std::min(options.find(';'), options.size());
        const std::string pair(options.substr(0, next));
        options.remove_prefix(next);
        require(!pair.empty(), "ensemble spec has an empty option");
        const std::size_t eq = pair.find('=');
        require(eq != std::string::npos && eq > 0 && eq + 1 <= pair.size(),
                "ensemble option '" + pair + "' is not key=value");
        const std::string key = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        require(std::find(seen.begin(), seen.end(), key) == seen.end(),
                "ensemble option '" + key + "' given twice");
        seen.push_back(key);
        if (key == "fuse") {
            spec.fuse = parse_fusion_kind(value);
        } else if (key == "fa") {
            spec.target_fa = parse_option<double>(key, value);
            require_unit_interval(key, spec.target_fa, /*allow_one=*/false);
        } else if (key == "k") {
            spec.votes_needed = parse_option<std::size_t>(key, value);
            require(spec.votes_needed >= 1 &&
                        spec.votes_needed <= spec.members.size(),
                    "ensemble option 'k' must lie in [1, members]");
        } else if (key == "decay") {
            spec.decay = parse_option<double>(key, value);
            require_unit_interval(key, spec.decay, /*allow_one=*/true);
        } else if (key == "every") {
            spec.calibrate_every = parse_option<std::size_t>(key, value);
            require(spec.calibrate_every >= 1,
                    "ensemble option 'every' must be >= 1");
        } else if (key == "w") {
            spec.ds_discount = parse_option<double>(key, value);
            require_unit_interval(key, spec.ds_discount, /*allow_one=*/true);
        } else if (key == "dst") {
            spec.ds_threshold = parse_option<double>(key, value);
            require_unit_interval(key, spec.ds_threshold, /*allow_one=*/true);
        } else {
            throw InvalidArgument("unknown ensemble option '" + key + "'");
        }
    }
    return spec;
}

std::string canonical(const EnsembleSpec& spec) {
    std::string out;
    for (std::size_t i = 0; i < spec.members.size(); ++i) {
        if (i > 0) out += '+';
        out += spec.members[i];
    }
    out += ";fuse=";
    out += fusion_kind_name(spec.fuse);
    // Only the options the chosen rule reads: the token stays short and two
    // specs that fuse identically render identically.
    if (spec.fuse == FusionKind::Vote) {
        out += ";fa=" + render_double(spec.target_fa);
        if (spec.votes_needed != 0)
            out += ";k=" + std::to_string(spec.votes_needed);
        out += ";decay=" + render_double(spec.decay);
        out += ";every=" + std::to_string(spec.calibrate_every);
    } else if (spec.fuse == FusionKind::DempsterShafer) {
        out += ";w=" + render_double(spec.ds_discount);
        out += ";dst=" + render_double(spec.ds_threshold);
    }
    return out;
}

}  // namespace adiv::fusion
