#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

namespace perfbench {
namespace {

// About 1.5x what the chatty serve workload records in a 30-second traced
// run; beyond it spans are counted as dropped rather than growing memory
// without bound.
constexpr std::size_t kMaxSpans = 3'000'000;

struct Buffer {
    std::vector<Span> spans;
};

struct Recorder {
    std::mutex mutex;
    std::vector<std::unique_ptr<Buffer>> buffers;  // guarded by mutex
    std::set<std::string> interned;                // guarded by mutex
    std::atomic<std::uint64_t> generation{1};
    std::atomic<bool> enabled{false};
    std::atomic<std::uint64_t> next_id{1};
    std::atomic<std::uint32_t> next_thread{1};
    std::atomic<std::size_t> recorded{0};
    std::atomic<std::uint64_t> dropped{0};
};

Recorder& recorder() {
    static Recorder instance;
    return instance;
}

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_generation = 0;
thread_local std::uint32_t t_thread = 0;
thread_local std::uint64_t t_open_span = 0;

Buffer& local_buffer() {
    Recorder& r = recorder();
    const std::uint64_t generation = r.generation.load(std::memory_order_acquire);
    if (t_generation != generation) {
        auto buffer = std::make_unique<Buffer>();
        buffer->spans.reserve(1 << 14);
        std::lock_guard lock(r.mutex);
        t_buffer = buffer.get();
        r.buffers.push_back(std::move(buffer));
        t_generation = generation;
    }
    return *t_buffer;
}

}  // namespace

std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void set_tracing(bool on) noexcept {
    recorder().enabled.store(on, std::memory_order_release);
}

bool tracing() noexcept {
    return recorder().enabled.load(std::memory_order_relaxed);
}

void clear_spans() {
    Recorder& r = recorder();
    std::lock_guard lock(r.mutex);
    r.buffers.clear();
    r.recorded = 0;
    r.dropped = 0;
    r.generation.fetch_add(1, std::memory_order_acq_rel);
}

std::vector<Span> collect_spans() {
    Recorder& r = recorder();
    std::vector<Span> all;
    {
        std::lock_guard lock(r.mutex);
        for (const auto& buffer : r.buffers)
            all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    std::sort(all.begin(), all.end(),
              [](const Span& a, const Span& b) { return a.id < b.id; });
    return all;
}

std::uint64_t dropped_spans() noexcept {
    return recorder().dropped.load(std::memory_order_relaxed);
}

const char* intern(const std::string& text) {
    Recorder& r = recorder();
    std::lock_guard lock(r.mutex);
    return r.interned.insert(text).first->c_str();
}

ScopedSpan::ScopedSpan(const char* name, const char* tag,
                       std::uint32_t session) noexcept {
    if (!tracing()) return;
    Recorder& r = recorder();
    if (t_thread == 0) t_thread = r.next_thread.fetch_add(1);
    active_ = true;
    span_.name = name;
    span_.tag = tag;
    span_.session = session;
    span_.thread = t_thread;
    span_.id = r.next_id.fetch_add(1, std::memory_order_relaxed);
    span_.parent = t_open_span;
    saved_parent_ = t_open_span;
    t_open_span = span_.id;
    span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = now_ns();
    t_open_span = saved_parent_;
    Recorder& r = recorder();
    if (r.recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
        r.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    local_buffer().spans.push_back(span_);
}

void link_by_session(std::vector<Span>& spans, const char* parent_name,
                     const char* child_name) {
    const std::string parent_key(parent_name);
    const std::string child_key(child_name);
    std::unordered_map<std::uint32_t, std::vector<const Span*>> parents;
    for (const Span& s : spans)
        if (s.session != 0 && parent_key == s.name) parents[s.session].push_back(&s);
    for (auto& [session, list] : parents)
        std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
            return a->start_ns < b->start_ns;
        });
    for (Span& s : spans) {
        if (s.parent != 0 || s.session == 0 || child_key != s.name) continue;
        const auto it = parents.find(s.session);
        if (it == parents.end()) continue;
        const auto& list = it->second;
        // Last parent that started no later than the child.
        auto pos = std::upper_bound(
            list.begin(), list.end(), s.start_ns,
            [](std::int64_t t, const Span* p) { return t < p->start_ns; });
        if (pos == list.begin()) continue;
        const Span* p = *(pos - 1);
        if (p->end_ns >= s.end_ns) s.parent = p->id;
    }
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent == 0) continue;
        const auto it = index.find(spans[i].parent);
        if (it != index.end()) children[it->second].push_back(i);
    }
    std::vector<double> self(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        cover.clear();
        for (const std::size_t c : children[i]) {
            const std::int64_t lo = std::max(s.start_ns, spans[c].start_ns);
            const std::int64_t hi = std::min(s.end_ns, spans[c].end_ns);
            if (hi > lo) cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t run_lo = 0;
        std::int64_t run_hi = -1;
        for (const auto& [lo, hi] : cover) {
            if (run_hi < lo) {
                if (run_hi > run_lo) covered += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo) covered += run_hi - run_lo;
        self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return self;
}

std::map<std::string, SpanStats> reduce(const std::vector<Span>& spans) {
    const std::vector<double> self = self_seconds(spans);
    std::map<std::string, SpanStats> stats;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::string key(s.name);
        if (s.tag != nullptr) key.append(".").append(s.tag);
        SpanStats& st = stats[key];
        st.count += 1;
        st.items += s.items;
        st.total_s += s.seconds();
        st.self_s += self[i];
        st.max_s = std::max(st.max_s, s.seconds());
    }
    return stats;
}

SpanStats lookup(const std::map<std::string, SpanStats>& stats, const std::string& key) {
    const auto it = stats.find(key);
    return it == stats.end() ? SpanStats{} : it->second;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans)
        std::fprintf(out,
                     "{\"name\":\"%s\",\"tag\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"session\":%u,\"thread\":%u,\"items\":%llu,"
                     "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     s.name, s.tag == nullptr ? "" : s.tag,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.session,
                     s.thread, static_cast<unsigned long long>(s.items),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    return std::fclose(out) == 0;
}

void print_span_table(std::FILE* out,
                      const std::map<std::string, SpanStats>& stats) {
    std::fprintf(out, "%-34s %10s %12s %12s %12s %12s\n", "span", "count",
                 "total_s", "self_s", "mean_us", "max_us");
    for (const auto& [key, st] : stats)
        std::fprintf(out, "%-34s %10llu %12.6f %12.6f %12.3f %12.3f\n",
                     key.c_str(), static_cast<unsigned long long>(st.count),
                     st.total_s, st.self_s, st.mean_us(), st.max_s * 1e6);
}

}  // namespace perfbench
