#include "obs/manifest.hpp"

#include <atomic>
#include <cctype>
#include <ctime>
#include <istream>
#include <ostream>

#include "obs/json.hpp"
#include "util/text_serial.hpp"

#ifndef ADIV_BUILD_TYPE
#define ADIV_BUILD_TYPE "unknown"
#endif

namespace adiv {

RunManifest make_manifest(std::string tool) {
    RunManifest manifest;
    manifest.tool = std::move(tool);
    manifest.build_type = build_type_string();
    manifest.timestamp = now_iso8601();
    return manifest;
}

namespace {

// The one sanctioned wall-clock read: manifests exist to record when a run
// happened, and every consumer that needs reproducibility pins the clock
// with set_manifest_clock() instead.
std::int64_t wall_clock_seconds() {
    return static_cast<std::int64_t>(
        // adiv-lint: allow(nondeterminism, "the one sanctioned wall-clock read; reproducible runs pin set_manifest_clock()")
        std::time(nullptr));
}

std::atomic<ManifestClock> g_manifest_clock{nullptr};

}  // namespace

void set_manifest_clock(ManifestClock clock) noexcept {
    g_manifest_clock.store(clock, std::memory_order_relaxed);
}

std::string iso8601_utc(std::int64_t seconds_since_epoch) {
    const std::time_t t = static_cast<std::time_t>(seconds_since_epoch);
    std::tm utc{};
    gmtime_r(&t, &utc);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc);
    return buf;
}

std::string now_iso8601() {
    const ManifestClock clock = g_manifest_clock.load(std::memory_order_relaxed);
    return iso8601_utc(clock ? clock() : wall_clock_seconds());
}

std::string build_type_string() { return ADIV_BUILD_TYPE; }

std::string manifest_json_line(const RunManifest& m) {
    JsonWriter w;
    w.begin_object();
    w.key("type").value("manifest");
    w.key("tool").value(m.tool);
    w.key("detector").value(m.detector);
    w.key("build_type").value(m.build_type);
    w.key("timestamp").value(m.timestamp);
    w.key("seed").value(m.seed);
    w.key("alphabet_size").value(static_cast<std::uint64_t>(m.alphabet_size));
    w.key("training_length").value(static_cast<std::uint64_t>(m.training_length));
    w.key("deviation_rate").value(m.deviation_rate);
    w.key("deviation_targets").value(static_cast<std::uint64_t>(m.deviation_targets));
    w.key("rare_threshold").value(m.rare_threshold);
    w.key("min_anomaly_size").value(static_cast<std::uint64_t>(m.min_anomaly_size));
    w.key("max_anomaly_size").value(static_cast<std::uint64_t>(m.max_anomaly_size));
    w.key("min_window").value(static_cast<std::uint64_t>(m.min_window));
    w.key("max_window").value(static_cast<std::uint64_t>(m.max_window));
    w.end_object();
    return w.str();
}

namespace {

// Strings in the tagged text format are single tokens; spaces would split.
// Manifest strings are tool/detector/build identifiers, which never contain
// whitespace, but guard with an escape ('_' for space) so a surprising value
// still round-trips losslessly enough to fail loudly on read if mangled.
std::string token_or_placeholder(const std::string& value) {
    if (value.empty()) return "-";
    std::string out = value;
    for (char& c : out)
        if (std::isspace(static_cast<unsigned char>(c))) c = '_';
    return out;
}

std::string read_string_token(std::istream& in, const std::string& what) {
    const std::string token = read_token(in, what);
    return token == "-" ? std::string() : token;
}

}  // namespace

void save_manifest(const RunManifest& m, std::ostream& out) {
    out << "adiv-manifest 1\n";
    out << "tool " << token_or_placeholder(m.tool) << '\n';
    out << "detector " << token_or_placeholder(m.detector) << '\n';
    out << "build_type " << token_or_placeholder(m.build_type) << '\n';
    out << "timestamp " << token_or_placeholder(m.timestamp) << '\n';
    out << "seed " << m.seed << '\n';
    out << "alphabet_size " << m.alphabet_size << '\n';
    out << "training_length " << m.training_length << '\n';
    out << "deviation_rate ";
    write_double(out, m.deviation_rate);
    out << '\n';
    out << "deviation_targets " << m.deviation_targets << '\n';
    out << "rare_threshold ";
    write_double(out, m.rare_threshold);
    out << '\n';
    out << "anomaly_sizes " << m.min_anomaly_size << ' ' << m.max_anomaly_size << '\n';
    out << "windows " << m.min_window << ' ' << m.max_window << '\n';
}

RunManifest load_manifest(std::istream& in) {
    expect_tag(in, "adiv-manifest");
    const std::uint64_t version = read_number<std::uint64_t>(in, "manifest version");
    require_data(version == 1, "unsupported manifest version");
    RunManifest m;
    expect_tag(in, "tool");
    m.tool = read_string_token(in, "tool");
    expect_tag(in, "detector");
    m.detector = read_string_token(in, "detector");
    expect_tag(in, "build_type");
    m.build_type = read_string_token(in, "build_type");
    expect_tag(in, "timestamp");
    m.timestamp = read_string_token(in, "timestamp");
    expect_tag(in, "seed");
    m.seed = read_number<std::uint64_t>(in, "seed");
    expect_tag(in, "alphabet_size");
    m.alphabet_size = read_number<std::size_t>(in, "alphabet_size");
    expect_tag(in, "training_length");
    m.training_length = read_number<std::size_t>(in, "training_length");
    expect_tag(in, "deviation_rate");
    m.deviation_rate = read_number<double>(in, "deviation_rate");
    expect_tag(in, "deviation_targets");
    m.deviation_targets = read_number<std::size_t>(in, "deviation_targets");
    expect_tag(in, "rare_threshold");
    m.rare_threshold = read_number<double>(in, "rare_threshold");
    expect_tag(in, "anomaly_sizes");
    m.min_anomaly_size = read_number<std::size_t>(in, "min_anomaly_size");
    m.max_anomaly_size = read_number<std::size_t>(in, "max_anomaly_size");
    expect_tag(in, "windows");
    m.min_window = read_number<std::size_t>(in, "min_window");
    m.max_window = read_number<std::size_t>(in, "max_window");
    return m;
}

}  // namespace adiv
