// In-memory spans for the traced run, and the reducer that turns them into
// per-layer self times.
//
// The benchmark records a span around each call it makes into a library
// layer (corpus generation, suite build, detector train/score, scorer
// push_batch, a client PUSH round trip). Spans go into per-thread buffers
// while tracing is on and cost one branch while it is off. A span's parent
// is the span open on the same thread when it began; spans recorded on
// server threads carry the client session instead, and link_by_session()
// parents them under that session's enclosing request span. Self time is a
// span's duration minus the part of its interval its children cover.
#pragma once
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    const char* name = nullptr;  ///< static string, e.g. "detect.score"
    const char* tag = nullptr;   ///< interned detector name, or nullptr
    std::uint64_t id = 0;
    std::uint64_t parent = 0;    ///< 0 = root
    std::uint32_t session = 0;   ///< client session (1-based), 0 = none
    std::uint32_t thread = 0;
    std::uint64_t items = 0;     ///< work the span covered (windows, events)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    [[nodiscard]] double seconds() const noexcept {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

/// Monotonic clock shared by every span, nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Turns recording on or off for spans that begin afterwards.
void set_tracing(bool on) noexcept;
[[nodiscard]] bool tracing() noexcept;

/// Drops every recorded span. Call only while no span is open.
void clear_spans();
/// Every recorded span, ordered by id.
[[nodiscard]] std::vector<Span> collect_spans();
/// Spans not recorded because the in-memory cap was reached.
[[nodiscard]] std::uint64_t dropped_spans() noexcept;

/// A stable C string equal to `text`, for span tags.
[[nodiscard]] const char* intern(const std::string& text);

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, const char* tag = nullptr,
                        std::uint32_t session = 0) noexcept;
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    void set_items(std::uint64_t items) noexcept { span_.items = items; }

private:
    Span span_;
    bool active_ = false;
    std::uint64_t saved_parent_ = 0;
};

/// Parents each root `child_name` span that has a session under the
/// `parent_name` span of the same session whose interval contains it.
void link_by_session(std::vector<Span>& spans, const char* parent_name,
                     const char* child_name);

/// Per-span self time: duration minus the union of its children's intervals.
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

struct SpanStats {
    std::uint64_t count = 0;
    std::uint64_t items = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double max_s = 0.0;

    [[nodiscard]] double mean_us() const noexcept {
        return count == 0 ? 0.0 : total_s * 1e6 / static_cast<double>(count);
    }
    [[nodiscard]] double mean_self_us() const noexcept {
        return count == 0 ? 0.0 : self_s * 1e6 / static_cast<double>(count);
    }
};

/// Aggregates spans by "name" or "name.tag".
[[nodiscard]] std::map<std::string, SpanStats> reduce(
    const std::vector<Span>& spans);

/// The aggregate under `key`; zero when no span has it.
[[nodiscard]] SpanStats lookup(const std::map<std::string, SpanStats>& stats,
                               const std::string& key);

/// Writes spans as JSON lines; returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Prints the reduced per-layer table.
void print_span_table(std::FILE* out, const std::map<std::string, SpanStats>& stats);

}  // namespace perfbench
