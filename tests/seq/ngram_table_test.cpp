#include "seq/ngram_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace adiv {
namespace {

EventStream abab() { return EventStream(2, {0, 1, 0, 1, 0, 1, 0}); }

TEST(NgramTable, CountsSlidingWindows) {
    const NgramTable t = NgramTable::from_stream(abab(), 2);
    EXPECT_EQ(t.total(), 6u);
    EXPECT_EQ(t.count(Sequence{0, 1}), 3u);
    EXPECT_EQ(t.count(Sequence{1, 0}), 3u);
    EXPECT_EQ(t.count(Sequence{0, 0}), 0u);
    EXPECT_EQ(t.distinct(), 2u);
}

TEST(NgramTable, ContainsMatchesCount) {
    const NgramTable t = NgramTable::from_stream(abab(), 2);
    EXPECT_TRUE(t.contains(Sequence{0, 1}));
    EXPECT_FALSE(t.contains(Sequence{1, 1}));
}

TEST(NgramTable, RelativeFrequency) {
    const NgramTable t = NgramTable::from_stream(abab(), 2);
    EXPECT_DOUBLE_EQ(t.relative_frequency(Sequence{0, 1}), 0.5);
    EXPECT_DOUBLE_EQ(t.relative_frequency(Sequence{1, 1}), 0.0);
}

TEST(NgramTable, StreamShorterThanWindowAddsNothing) {
    NgramTable t(4, 5);
    t.add_stream(EventStream(4, {0, 1, 2}));
    EXPECT_EQ(t.total(), 0u);
    EXPECT_EQ(t.distinct(), 0u);
}

TEST(NgramTable, AddSingleGramWithMultiplicity) {
    NgramTable t(4, 3);
    t.add(Sequence{1, 2, 3}, 5);
    EXPECT_EQ(t.count(Sequence{1, 2, 3}), 5u);
    EXPECT_EQ(t.total(), 5u);
}

TEST(NgramTable, AddWrongLengthThrows) {
    NgramTable t(4, 3);
    EXPECT_THROW(t.add(Sequence{1, 2}), InvalidArgument);
    EXPECT_THROW((void)t.count(Sequence{1}), InvalidArgument);
}

TEST(NgramTable, MismatchedAlphabetThrows) {
    NgramTable t(4, 2);
    EXPECT_THROW(t.add_stream(EventStream(8, {0, 1, 2})), InvalidArgument);
}

TEST(NgramTable, ZeroLengthThrows) { EXPECT_THROW(NgramTable(4, 0), InvalidArgument); }

TEST(NgramTable, LengthBeyondCodecCapacityThrows) {
    EXPECT_THROW(NgramTable(8, 43), InvalidArgument);
}

TEST(NgramTable, ForEachVisitsEveryDistinctGram) {
    const NgramTable t = NgramTable::from_stream(abab(), 2);
    std::size_t visits = 0;
    std::uint64_t total = 0;
    t.for_each([&](NgramKey, std::uint64_t count) {
        ++visits;
        total += count;
    });
    EXPECT_EQ(visits, t.distinct());
    EXPECT_EQ(total, t.total());
}

TEST(NgramTable, ItemsByCountIsSortedDescending) {
    NgramTable t(4, 2);
    t.add(Sequence{0, 1}, 5);
    t.add(Sequence{1, 2}, 9);
    t.add(Sequence{2, 3}, 1);
    const auto items = t.items_by_count();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].second, 9u);
    EXPECT_EQ(items[0].first, (Sequence{1, 2}));
    EXPECT_EQ(items[2].second, 1u);
}

TEST(NgramTable, ItemsByCountBreaksTiesByKey) {
    NgramTable t(4, 2);
    t.add(Sequence{3, 3}, 2);
    t.add(Sequence{0, 1}, 2);
    const auto items = t.items_by_count();
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].first, (Sequence{0, 1}));  // smaller key first
}

TEST(NgramTable, AccumulatesAcrossMultipleStreams) {
    NgramTable t(2, 2);
    t.add_stream(EventStream(2, {0, 1, 0}));
    t.add_stream(EventStream(2, {1, 0, 1}));
    EXPECT_EQ(t.total(), 4u);
    EXPECT_EQ(t.count(Sequence{0, 1}), 2u);
    EXPECT_EQ(t.count(Sequence{1, 0}), 2u);
}

TEST(NgramTable, AddZeroCountIsDataErrorAndStoresNothing) {
    // Stide and t-Stide models feed their file counts through add(); a 0
    // count must neither vanish silently nor become a distinct window.
    NgramTable t(4, 2);
    t.add(Sequence{1, 2}, 3);
    EXPECT_THROW(t.add(Sequence{0, 1}, 0), DataError);
    EXPECT_THROW(t.add(Sequence{1, 2}, 0), DataError);
    EXPECT_EQ(t.distinct(), 1u);
    EXPECT_EQ(t.total(), 3u);
    EXPECT_EQ(t.count(Sequence{1, 2}), 3u);
    EXPECT_FALSE(t.contains(Sequence{0, 1}));
}

EventStream random_stream(std::size_t alphabet, std::size_t length, std::uint64_t seed) {
    Rng rng(seed);
    Sequence events(length);
    for (Symbol& s : events) s = static_cast<Symbol>(rng.below(alphabet));
    return EventStream(alphabet, std::move(events));
}

/// Counts every length-n window by brute force, keyed by the window itself.
std::map<Sequence, std::uint64_t> brute_force_counts(const EventStream& stream,
                                                     std::size_t n) {
    std::map<Sequence, std::uint64_t> counts;
    const SymbolView all = stream.view();
    for (std::size_t pos = 0; pos + n <= all.size(); ++pos)
        ++counts[Sequence(all.begin() + static_cast<std::ptrdiff_t>(pos),
                          all.begin() + static_cast<std::ptrdiff_t>(pos + n))];
    return counts;
}

void expect_counts_match_brute_force(std::size_t alphabet, std::size_t n,
                                     std::size_t length, std::uint64_t seed) {
    const EventStream stream = random_stream(alphabet, length, seed);
    const NgramTable table = NgramTable::from_stream(stream, n);
    const std::map<Sequence, std::uint64_t> want = brute_force_counts(stream, n);

    EXPECT_EQ(table.total(), length - n + 1);
    ASSERT_EQ(table.distinct(), want.size());
    for (const auto& [gram, count] : want) ASSERT_EQ(table.count(gram), count);

    std::map<Sequence, std::uint64_t> visited;
    table.for_each([&](NgramKey key, std::uint64_t count) {
        EXPECT_TRUE(visited.emplace(table.codec().decode(key, n), count).second);
    });
    EXPECT_EQ(visited, want);

    // Keys order windows lexicographically, so the map's order breaks ties.
    std::vector<std::pair<Sequence, std::uint64_t>> by_count(want.begin(), want.end());
    std::stable_sort(by_count.begin(), by_count.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });
    EXPECT_EQ(table.items_by_count(), by_count);

    Rng probe(seed + 1);
    Sequence gram(n);
    for (int i = 0; i < 500; ++i) {
        for (Symbol& s : gram) s = static_cast<Symbol>(probe.below(alphabet));
        const auto it = want.find(gram);
        ASSERT_EQ(table.count(gram), it == want.end() ? 0u : it->second);
    }
}

// Each case stores thousands of distinct windows, so the table grows from
// its initial capacity several times.
TEST(NgramTable, BinaryAlphabetCountsMatchBruteForce) {
    expect_counts_match_brute_force(2, 12, 20'000, 3);
}

TEST(NgramTable, PaperAlphabetCountsMatchBruteForce) {
    expect_counts_match_brute_force(8, 5, 20'000, 4);
}

TEST(NgramTable, WideKeysCountMatchBruteForce) {
    // 8 bits per symbol: 9 symbols reach past the low 64 key bits, and 16
    // fill all 128.
    expect_counts_match_brute_force(256, 9, 6'000, 5);
    expect_counts_match_brute_force(256, 16, 6'000, 6);
}

}  // namespace
}  // namespace adiv
