#include "seq/conditional_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace adiv {
namespace {

// Stream: 0 1 0 1 0 2 — context {0} is followed by 1 twice and 2 once.
EventStream mixed() { return EventStream(3, {0, 1, 0, 1, 0, 2}); }

TEST(ConditionalModel, EstimatesConditionalProbabilities) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_NEAR(m.probability(Sequence{0}, 1), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.probability(Sequence{0}, 2), 1.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(m.probability(Sequence{1}, 0), 1.0);
}

TEST(ConditionalModel, UnseenContinuationIsZero) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_DOUBLE_EQ(m.probability(Sequence{0}, 0), 0.0);
}

TEST(ConditionalModel, UnseenContextIsZero) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_DOUBLE_EQ(m.probability(Sequence{2}, 0), 0.0);
    EXPECT_FALSE(m.context_known(Sequence{2}));
}

TEST(ConditionalModel, CountsMatchStream) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_EQ(m.context_count(Sequence{0}), 3u);
    EXPECT_EQ(m.continuation_count(Sequence{0}, 1), 2u);
    EXPECT_EQ(m.continuation_count(Sequence{0}, 2), 1u);
}

TEST(ConditionalModel, LongerContext) {
    const ConditionalModel m(EventStream(3, {0, 1, 2, 0, 1, 2, 0, 1, 0}), 2);
    EXPECT_DOUBLE_EQ(m.probability(Sequence{1, 2}, 0), 1.0);
    EXPECT_NEAR(m.probability(Sequence{0, 1}, 2), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.probability(Sequence{0, 1}, 0), 1.0 / 3.0, 1e-12);
}

TEST(ConditionalModel, ContextLengthMismatchThrows) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_THROW((void)m.probability(Sequence{0, 1}, 0), InvalidArgument);
}

TEST(ConditionalModel, ZeroContextLengthThrows) {
    EXPECT_THROW(ConditionalModel(mixed(), 0), InvalidArgument);
}

TEST(ConditionalModel, TooShortStreamThrows) {
    EXPECT_THROW(ConditionalModel(EventStream(3, {0}), 1), DataError);
}

TEST(ConditionalModel, SmoothedProbabilityWithAlpha) {
    const ConditionalModel m(mixed(), 1);
    // count(0->0)=0, count(0)=3, alphabet 3, alpha 1: (0+1)/(3+3) = 1/6.
    EXPECT_NEAR(m.probability_smoothed(Sequence{0}, 0, 1.0), 1.0 / 6.0, 1e-12);
    // Unseen context with alpha: uniform 1/alphabet.
    EXPECT_NEAR(m.probability_smoothed(Sequence{2}, 0, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(ConditionalModel, SmoothedWithZeroAlphaMatchesRaw) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_DOUBLE_EQ(m.probability_smoothed(Sequence{0}, 1, 0.0),
                     m.probability(Sequence{0}, 1));
}

TEST(ConditionalModel, NegativeAlphaThrows) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_THROW((void)m.probability_smoothed(Sequence{0}, 1, -0.5), InvalidArgument);
}

TEST(ConditionalModel, DistributionsAreSortedAndComplete) {
    const ConditionalModel m(mixed(), 1);
    const auto dists = m.distributions();
    ASSERT_EQ(dists.size(), m.distinct_contexts());
    ASSERT_EQ(dists.size(), 2u);  // contexts {0} and {1}
    // Sorted by descending total: context {0} occurs 3 times, {1} twice.
    EXPECT_EQ(dists[0].context, (Sequence{0}));
    EXPECT_EQ(dists[0].total, 3u);
    EXPECT_EQ(dists[1].context, (Sequence{1}));
    EXPECT_EQ(dists[1].total, 2u);
    EXPECT_EQ(dists[0].next_counts[1], 2u);
    EXPECT_EQ(dists[0].next_counts[2], 1u);
}

TEST(ConditionalModel, DistributionTotalsSumNextCounts) {
    const ConditionalModel m(EventStream(4, {0, 1, 2, 3, 0, 1, 2, 3, 0}), 2);
    for (const auto& d : m.distributions()) {
        std::uint64_t sum = 0;
        for (auto c : d.next_counts) sum += c;
        EXPECT_EQ(sum, d.total);
    }
}

void expect_model_matches_brute_force(std::size_t alphabet, std::size_t k,
                                      std::size_t length, std::uint64_t seed) {
    Rng rng(seed);
    Sequence events(length);
    for (Symbol& s : events) s = static_cast<Symbol>(rng.below(alphabet));
    const EventStream stream(alphabet, events);
    const ConditionalModel model(stream, k);

    // Brute force: every context of k symbols, with the symbol that follows.
    std::map<Sequence, std::vector<std::uint64_t>> want;
    for (std::size_t pos = 0; pos + k < length; ++pos) {
        auto& next = want[Sequence(events.begin() + static_cast<std::ptrdiff_t>(pos),
                                   events.begin() + static_cast<std::ptrdiff_t>(pos + k))];
        next.resize(alphabet);
        ++next[events[pos + k]];
    }

    ASSERT_EQ(model.distinct_contexts(), want.size());
    std::vector<ContextDistribution> expected;
    for (const auto& [context, next] : want) {
        ContextDistribution dist;
        dist.context = context;
        dist.next_counts = next;
        for (std::uint64_t c : next) dist.total += c;
        expected.push_back(dist);
        ASSERT_EQ(model.context_count(context), dist.total);
        for (Symbol s = 0; s < alphabet; ++s)
            ASSERT_EQ(model.continuation_count(context, s), next[s]);
    }
    // Context keys order contexts lexicographically, so the map's order
    // breaks ties in total.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.total > b.total; });
    const std::vector<ContextDistribution> got = model.distributions();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].context, expected[i].context) << i;
        EXPECT_EQ(got[i].next_counts, expected[i].next_counts) << i;
        EXPECT_EQ(got[i].total, expected[i].total) << i;
    }
}

TEST(ConditionalModel, BinaryAlphabetMatchesBruteForce) {
    expect_model_matches_brute_force(2, 11, 20'000, 7);
}

TEST(ConditionalModel, PaperAlphabetMatchesBruteForce) {
    expect_model_matches_brute_force(8, 4, 20'000, 8);
}

TEST(ConditionalModel, WideKeysMatchBruteForce) {
    // 8 bits per symbol: contexts of 8 make 9-symbol windows that reach past
    // the low 64 key bits, and contexts of 15 fill all 128.
    expect_model_matches_brute_force(256, 8, 4'000, 9);
    expect_model_matches_brute_force(256, 15, 4'000, 10);
}

}  // namespace
}  // namespace adiv
