// ScoreMemo: a mutex-guarded memo for detector score() paths.
//
// A detector may cache expensive per-window computations behind a `mutable`
// member so that the const score() stays fast on test streams that repeat
// windows heavily (Lane & Brodley is the one that still does; the neural net
// keeps its cache local to each score() call). A bare unordered_map would make those detectors
// unsafe for the concurrent score() calls the experiment engine performs
// (see detector.hpp, "Concurrency contract"); this wrapper serializes the
// cache accesses while leaving the expensive compute outside the lock.
//
// On a concurrent miss two workers may compute the same value; both store an
// identical (deterministic) result, so last-writer-wins is harmless and the
// memo never changes observable scores.
//
// Copy and move transfer the entries but not the mutex, so detectors that
// own a ScoreMemo stay copyable and movable (load_model returns by value).
#pragma once

#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace adiv {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ScoreMemo {
public:
    ScoreMemo() = default;

    ScoreMemo(const ScoreMemo& other) : entries_(other.snapshot()) {}
    ScoreMemo(ScoreMemo&& other) noexcept : entries_(other.take()) {}
    ScoreMemo& operator=(const ScoreMemo& other) {
        if (this != &other) replace(other.snapshot());
        return *this;
    }
    ScoreMemo& operator=(ScoreMemo&& other) noexcept {
        if (this != &other) replace(other.take());
        return *this;
    }

    /// Returns a copy of the memoized value, or nullopt on a miss. Copies —
    /// a reference into the map would dangle across a concurrent rehash.
    [[nodiscard]] std::optional<Value> find(const Key& key) const {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end()) return std::nullopt;
        return it->second;
    }

    /// Stores one entry (overwriting a concurrent identical recomputation).
    void store(const Key& key, Value value) {
        const std::lock_guard<std::mutex> lock(mutex_);
        entries_.insert_or_assign(key, std::move(value));
    }

    void clear() {
        const std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
    }

    [[nodiscard]] std::size_t size() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

private:
    using Map = std::unordered_map<Key, Value, Hash>;

    [[nodiscard]] Map snapshot() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return entries_;
    }

    [[nodiscard]] Map take() noexcept {
        const std::lock_guard<std::mutex> lock(mutex_);
        return std::move(entries_);
    }

    void replace(Map entries) {
        const std::lock_guard<std::mutex> lock(mutex_);
        entries_ = std::move(entries);
    }

    mutable std::mutex mutex_;
    Map entries_;
};

}  // namespace adiv
