#include "detect/nn_detector.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "support/corpus_fixture.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

NnDetectorConfig fast_config() {
    NnDetectorConfig cfg;
    cfg.hidden_units = 12;
    cfg.epochs = 250;
    return cfg;
}

TEST(NnDetector, WindowOfOneThrows) {
    EXPECT_THROW(NnDetector(1), InvalidArgument);
}

TEST(NnDetector, ScoreBeforeTrainThrows) {
    const NnDetector d(2, fast_config());
    EXPECT_THROW((void)d.score(EventStream(3, {0, 1, 2})), InvalidArgument);
}

TEST(NnDetector, InvalidConfigThrows) {
    NnDetectorConfig cfg = fast_config();
    cfg.hidden_units = 0;
    EXPECT_THROW(NnDetector(2, cfg), InvalidArgument);
    cfg = fast_config();
    cfg.epochs = 0;
    EXPECT_THROW(NnDetector(2, cfg), InvalidArgument);
    cfg = fast_config();
    cfg.probability_floor = 1.5;
    EXPECT_THROW(NnDetector(2, cfg), InvalidArgument);
}

TEST(NnDetector, LearnsDeterministicContinuations) {
    // Pure cycle: P(next|prev) = 1; responses should be near zero.
    Sequence events;
    for (int i = 0; i < 50; ++i)
        for (Symbol s = 0; s < 4; ++s) events.push_back(s);
    const EventStream train(4, std::move(events));
    NnDetector d(2, fast_config());
    d.train(train);
    const auto r = d.score(EventStream(4, {0, 1, 2, 3, 0}));
    for (double v : r) EXPECT_LT(v, 0.1);
}

TEST(NnDetector, FlagsDeviationsOnCorpus) {
    NnDetector d(2, fast_config());
    d.train(test::small_corpus().training());
    EventStream test = test::small_corpus().background(64, 0);
    test.push_back(1);  // deviation 7 -> 1 (probability ~0.08% in training)
    const auto r = d.score(test);
    EXPECT_DOUBLE_EQ(r.back(), 1.0);
    // Cycle windows stay quiet.
    for (std::size_t i = 0; i + 1 < r.size(); ++i) EXPECT_LT(r[i], 0.1);
}

TEST(NnDetector, PredictReturnsDistribution) {
    NnDetector d(3, fast_config());
    d.train(test::small_corpus().training());
    const auto probs = d.predict(Sequence{0, 1});
    ASSERT_EQ(probs.size(), 8u);
    double sum = 0.0;
    for (double p : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // The cycle continuation (2) dominates.
    EXPECT_GT(probs[2], 0.9);
}

TEST(NnDetector, TrainingLossIsFiniteAndSmall) {
    NnDetector d(2, fast_config());
    d.train(test::small_corpus().training());
    EXPECT_GT(d.training_loss(), 0.0);
    EXPECT_LT(d.training_loss(), 0.2);
}

TEST(NnDetector, DeterministicPerSeed) {
    NnDetector a(2, fast_config()), b(2, fast_config());
    a.train(test::small_corpus().training());
    b.train(test::small_corpus().training());
    const EventStream test = test::small_corpus().background(32, 0);
    EXPECT_EQ(a.score(test), b.score(test));
}

TEST(NnDetector, BadParametersWeakenTheSignal) {
    // Section 7: "some combinations of these values may result in weakened
    // anomaly signals". An undertrained single-hidden-unit network cannot
    // keep the deviation probability under the floor everywhere.
    NnDetectorConfig bad;
    bad.hidden_units = 1;
    bad.epochs = 5;
    bad.learning_rate = 0.01;
    NnDetector d(2, bad);
    d.train(test::small_corpus().training());
    EventStream test = test::small_corpus().background(64, 0);
    test.push_back(1);
    const auto r = d.score(test);
    EXPECT_LT(r.back(), 1.0);
}

TEST(NnDetector, ResponseCountMatchesWindows) {
    NnDetector d(4, fast_config());
    d.train(test::small_corpus().training());
    const EventStream test = test::small_corpus().background(40, 2);
    EXPECT_EQ(d.score(test).size(), test.window_count(4));
}

/// Held-out background with every 13th symbol replaced by an off-cycle one,
/// so the stream mixes common, rare and unseen contexts.
EventStream perturbed_test_stream(std::size_t length, std::uint64_t seed) {
    const EventStream heldout = test::small_corpus().generate_heldout(length, seed);
    Sequence events(heldout.view().begin(), heldout.view().end());
    for (std::size_t i = 6; i < events.size(); i += 13)
        events[i] = static_cast<Symbol>((events[i] * 5 + 3) % heldout.alphabet_size());
    return EventStream(heldout.alphabet_size(), std::move(events));
}

/// score(test)[p] must be quantizer(predict(context of p)[next symbol of p])
/// bit for bit: the per-call cache may skip forward passes, never change one.
void expect_score_matches_predict(const NnDetector& d, const EventStream& test) {
    const std::vector<double> got = d.score(test);
    const std::size_t context_len = d.window_length() - 1;
    ASSERT_EQ(got.size(), test.window_count(d.window_length()));
    ResponseQuantizer quantizer;
    quantizer.probability_floor = d.config().probability_floor;
    const SymbolView all = test.view();
    for (std::size_t p = 0; p < got.size(); ++p) {
        const double want = quantizer.response_for_probability(
            d.predict(all.subspan(p, context_len))[all[p + context_len]]);
        ASSERT_EQ(std::memcmp(&got[p], &want, sizeof want), 0) << "window " << p;
    }
}

TEST(NnDetector, ScoreEqualsQuantizedPredictBitForBit) {
    NnDetector d(4, fast_config());
    d.train(test::small_corpus().training());
    const EventStream test = perturbed_test_stream(600, 17);
    expect_score_matches_predict(d, test);

    std::stringstream model;
    d.save_model(model);
    const NnDetector loaded = NnDetector::load_model(model);
    expect_score_matches_predict(loaded, test);
    const std::vector<double> a = d.score(test);
    const std::vector<double> b = loaded.score(test);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(NnDetector, ConcurrentScoresMatchSerial) {
    NnDetector d(5, fast_config());
    d.train(test::small_corpus().training());
    std::vector<EventStream> streams;
    for (std::uint64_t seed = 0; seed < 8; ++seed)
        streams.push_back(perturbed_test_stream(400, 100 + seed));
    std::vector<std::vector<double>> serial;
    for (const EventStream& s : streams) serial.push_back(d.score(s));

    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<std::vector<double>>> got(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            // Each thread walks the streams from a different start, so the
            // same stream is scored by several threads at once.
            got[t].resize(streams.size());
            for (std::size_t i = 0; i < streams.size(); ++i) {
                const std::size_t k = (i + 2 * t) % streams.size();
                got[t][k] = d.score(streams[k]);
            }
        });
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        for (std::size_t k = 0; k < streams.size(); ++k) {
            ASSERT_EQ(got[t][k].size(), serial[k].size());
            EXPECT_EQ(std::memcmp(got[t][k].data(), serial[k].data(),
                                  serial[k].size() * sizeof(double)),
                      0)
                << "thread " << t << ", stream " << k;
        }
}

TEST(NnDetector, NameAndWindow) {
    const NnDetector d(5, fast_config());
    EXPECT_EQ(d.name(), "neural-net");
    EXPECT_EQ(d.window_length(), 5u);
}

}  // namespace
}  // namespace adiv
