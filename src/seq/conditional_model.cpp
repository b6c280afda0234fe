#include "seq/conditional_model.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace adiv {

ConditionalModel::ConditionalModel(const EventStream& train, std::size_t context_length)
    : context_length_(context_length),
      alphabet_size_(train.alphabet_size()),
      codec_(train.alphabet_size()) {
    require(context_length >= 1, "context length must be at least 1");
    require(context_length + 1 <= codec_.max_length(),
            "context length exceeds codec capacity");
    require_data(train.size() >= context_length + 1,
                 "training stream shorter than one context+continuation window");

    // Each (k+1)-window is a context (its first k symbols, the high bits of
    // its key) followed by the next symbol (the low bits).
    const NgramTable windows = NgramTable::from_stream(train, context_length_ + 1);
    const unsigned bits = codec_.bits_per_symbol();
    const NgramKey symbol_mask = (NgramKey{1} << bits) - 1;
    by_context_.reserve(windows.distinct());
    windows.for_each([&](NgramKey key, std::uint64_t count) {
        Entry& entry = by_context_[key >> bits];
        if (entry.next_counts.empty()) entry.next_counts.assign(alphabet_size_, 0);
        entry.next_counts[static_cast<std::size_t>(key & symbol_mask)] += count;
        entry.total += count;
    });
}

ConditionalModel::ConditionalModel(
    std::size_t alphabet_size, std::size_t context_length,
    const std::vector<ContextDistribution>& distributions)
    : context_length_(context_length),
      alphabet_size_(alphabet_size),
      codec_(alphabet_size) {
    require(context_length >= 1, "context length must be at least 1");
    require(context_length + 1 <= codec_.max_length(),
            "context length exceeds codec capacity");
    for (const ContextDistribution& dist : distributions) {
        require(dist.context.size() == context_length_,
                "distribution context length mismatch");
        require(dist.next_counts.size() == alphabet_size_,
                "distribution continuation vector length mismatch");
        std::uint64_t sum = 0;
        for (std::uint64_t c : dist.next_counts) sum += c;
        require(sum == dist.total && sum > 0,
                "distribution total does not match its continuation counts");
        Entry& entry = by_context_[codec_.encode(dist.context)];
        require(entry.next_counts.empty(), "duplicate context in distributions");
        entry.next_counts = dist.next_counts;
        entry.total = dist.total;
    }
    require_data(!by_context_.empty(), "cannot restore an empty model");
}

double ConditionalModel::probability(SymbolView context, Symbol next) const {
    require(context.size() == context_length_, "context length mismatch");
    const auto it = by_context_.find(codec_.encode(context));
    if (it == by_context_.end()) return 0.0;
    return static_cast<double>(it->second.next_counts[next]) /
           static_cast<double>(it->second.total);
}

double ConditionalModel::probability_smoothed(SymbolView context, Symbol next,
                                              double alpha) const {
    require(context.size() == context_length_, "context length mismatch");
    require(alpha >= 0.0, "smoothing pseudo-count must be non-negative");
    const auto it = by_context_.find(codec_.encode(context));
    const double numerator_count =
        it == by_context_.end() ? 0.0 : static_cast<double>(it->second.next_counts[next]);
    const double denominator_count =
        it == by_context_.end() ? 0.0 : static_cast<double>(it->second.total);
    const double denom = denominator_count + alpha * static_cast<double>(alphabet_size_);
    if (denom == 0.0) return 0.0;
    return (numerator_count + alpha) / denom;
}

std::uint64_t ConditionalModel::context_count(SymbolView context) const {
    require(context.size() == context_length_, "context length mismatch");
    const auto it = by_context_.find(codec_.encode(context));
    return it == by_context_.end() ? 0 : it->second.total;
}

std::uint64_t ConditionalModel::continuation_count(SymbolView context, Symbol next) const {
    require(context.size() == context_length_, "context length mismatch");
    const auto it = by_context_.find(codec_.encode(context));
    return it == by_context_.end() ? 0 : it->second.next_counts[next];
}

std::vector<ContextDistribution> ConditionalModel::distributions() const {
    std::vector<std::pair<NgramKey, const Entry*>> keyed;
    keyed.reserve(by_context_.size());
    // Hash order never escapes: the keyed vector is fully sorted below.
    // adiv-lint: allow(unordered-iteration, "hash order never escapes: the keyed vector is fully sorted below")
    for (const auto& [key, entry] : by_context_) keyed.emplace_back(key, &entry);
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
        if (a.second->total != b.second->total) return a.second->total > b.second->total;
        return a.first < b.first;
    });
    std::vector<ContextDistribution> out;
    out.reserve(keyed.size());
    for (const auto& [key, entry] : keyed) {
        ContextDistribution dist;
        dist.context = codec_.decode(key, context_length_);
        dist.next_counts = entry->next_counts;
        dist.total = entry->total;
        out.push_back(std::move(dist));
    }
    return out;
}

}  // namespace adiv
