#include "io/model_io.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "support/corpus_fixture.hpp"
#include "support/temp_path.hpp"
#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {
namespace {

// Round-trip property, parameterized over every detector kind: a model saved
// and reloaded produces bit-identical responses on both normal data and an
// anomaly stream, with no retraining.
class ModelRoundTrip : public ::testing::TestWithParam<DetectorKind> {};

TEST_P(ModelRoundTrip, ReloadedModelScoresIdentically) {
    const DetectorKind kind = GetParam();
    DetectorSettings settings;
    settings.nn.epochs = 150;
    settings.hmm.iterations = 10;
    const std::size_t dw = 5;
    auto original = make_detector(kind, dw, settings);
    original->train(test::small_corpus().training());

    std::stringstream buffer;
    save_detector(*original, buffer);
    const auto restored = load_detector(buffer);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->name(), original->name());
    EXPECT_EQ(restored->window_length(), dw);
    EXPECT_EQ(restored->alphabet_size(), original->alphabet_size());

    const EventStream heldout = test::small_corpus().generate_heldout(5'000, 42);
    EXPECT_EQ(restored->score(heldout), original->score(heldout));
    const EventStream& anomaly_stream =
        test::small_suite().entry(4, dw).stream.stream;
    EXPECT_EQ(restored->score(anomaly_stream), original->score(anomaly_stream));
}

TEST_P(ModelRoundTrip, ReloadedModelReplaysOnlineIdentically) {
    // The serving property: a daemon that load_detector()s a model must
    // produce the same per-window responses through an OnlineScorer as the
    // process that trained it — event-at-a-time, for every registered kind.
    const DetectorKind kind = GetParam();
    DetectorSettings settings;
    settings.nn.epochs = 150;
    settings.hmm.iterations = 10;
    const std::size_t dw = 5;
    auto original = make_detector(kind, dw, settings);
    original->train(test::small_corpus().training());

    std::stringstream buffer;
    save_detector(*original, buffer);
    const auto restored = load_detector(buffer);
    ASSERT_NE(restored, nullptr);

    const EventStream heldout = test::small_corpus().generate_heldout(3'000, 7);
    OnlineScorer trained_side(*original);
    OnlineScorer loaded_side(*restored);
    for (std::size_t i = 0; i < heldout.size(); ++i) {
        const auto expected = trained_side.push(heldout[i]);
        const auto actual = loaded_side.push(heldout[i]);
        ASSERT_EQ(actual.has_value(), expected.has_value()) << "event " << i;
        if (expected) ASSERT_EQ(*actual, *expected) << "event " << i;
    }
    EXPECT_EQ(loaded_side.windows_scored(), trained_side.windows_scored());
    EXPECT_EQ(loaded_side.alarms(), trained_side.alarms());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelRoundTrip,
                         ::testing::ValuesIn(all_detectors()),
                         [](const auto& info) {
                             std::string name = to_string(info.param);
                             for (char& c : name)
                                 if (c == '-') c = '_';
                             return name;
                         });

TEST(ModelIo, SavingUntrainedDetectorThrows) {
    for (DetectorKind kind : all_detectors()) {
        const auto d = make_detector(kind, 4);
        std::ostringstream out;
        EXPECT_THROW(save_detector(*d, out), InvalidArgument) << to_string(kind);
    }
}

TEST(ModelIo, RejectsWrongEnvelopeTag) {
    std::istringstream in("not-a-model 1 stide");
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, RejectsUnsupportedVersion) {
    std::istringstream in("adiv-model 99 stide 2 8 0");
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, RejectsUnknownKind) {
    std::istringstream in("adiv-model 1 quantum");
    EXPECT_THROW((void)load_detector(in), InvalidArgument);
}

TEST(ModelIo, RejectsTruncatedBody) {
    auto d = make_detector(DetectorKind::Stide, 3);
    d->train(test::small_corpus().training());
    std::ostringstream out;
    save_detector(*d, out);
    const std::string full = out.str();
    std::istringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW((void)load_detector(truncated), DataError);
}

TEST(ModelIo, RejectsOutOfAlphabetSymbols) {
    std::istringstream in("adiv-model 1 stide 2 8 1 9 9 5");
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, FileHelpersRoundTrip) {
    auto d = make_detector(DetectorKind::Markov, 4);
    d->train(test::small_corpus().training());
    const std::string path = test::temp_path("model_io_test.adiv");
    save_detector_file(*d, path);
    const auto restored = load_detector_file(path);
    const EventStream heldout = test::small_corpus().generate_heldout(2'000, 9);
    EXPECT_EQ(restored->score(heldout), d->score(heldout));
    std::remove(path.c_str());
}

TEST(ModelIo, MissingFileThrows) {
    EXPECT_THROW((void)load_detector_file("/nonexistent/path/model.adiv"),
                 DataError);
}

TEST(ModelIo, RuleModelPreservesRuleList) {
    RuleDetector original(4);
    original.train(test::small_corpus().training());
    std::stringstream buffer;
    original.save_model(buffer);
    const RuleDetector restored = RuleDetector::load_model(buffer);
    ASSERT_EQ(restored.rules().size(), original.rules().size());
    for (std::size_t i = 0; i < original.rules().size(); ++i) {
        EXPECT_EQ(restored.rules()[i].prediction, original.rules()[i].prediction);
        EXPECT_DOUBLE_EQ(restored.rules()[i].confidence,
                         original.rules()[i].confidence);
        EXPECT_EQ(restored.rules()[i].conditions.size(),
                  original.rules()[i].conditions.size());
    }
}

TEST(ModelIo, HmmModelPreservesParametersExactly) {
    HmmDetectorConfig cfg;
    cfg.iterations = 8;
    HmmDetector original(3, cfg);
    original.train(test::small_corpus().training());
    std::stringstream buffer;
    original.save_model(buffer);
    const HmmDetector restored = HmmDetector::load_model(buffer);
    EXPECT_DOUBLE_EQ(restored.training_log_likelihood(),
                     original.training_log_likelihood());
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            EXPECT_DOUBLE_EQ(restored.model().transitions().at(i, j),
                             original.model().transitions().at(i, j));
}

/// True when `a` and `b` have the same bit pattern (tells -0.0 from 0.0).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(ModelIo, HmmModelRoundTripsExtremeDoublesBitExactly) {
    // A hand-written 2-state, 2-symbol HMM whose doubles sit at the edges of
    // the format: the smallest subnormal, a negative zero and DBL_MAX. Each
    // must load, and survive a save/load cycle, with its bits unchanged.
    const double denorm = std::numeric_limits<double>::denorm_min();
    std::ostringstream text;
    text << "3 2 2 1 100 ";
    write_double(text, denorm);  // probability floor
    text << " 7 ";
    write_double(text, DBL_MAX);  // training log-likelihood
    text << "\n1 ";
    write_double(text, -0.0);
    text << "\n0.5 0.5\n";
    write_double(text, denorm);
    text << " 1\n1 ";
    write_double(text, -0.0);
    text << "\n";
    write_double(text, DBL_MAX);
    text << " 0\n";
    std::istringstream in(text.str());
    const HmmDetector loaded = HmmDetector::load_model(in);
    std::stringstream again;
    loaded.save_model(again);
    const HmmDetector reloaded = HmmDetector::load_model(again);
    for (const HmmDetector* model : {&loaded, &reloaded}) {
        EXPECT_TRUE(same_bits(model->config().probability_floor, denorm));
        EXPECT_TRUE(same_bits(model->training_log_likelihood(), DBL_MAX));
        EXPECT_TRUE(same_bits(model->model().initial()[1], -0.0));
        EXPECT_TRUE(same_bits(model->model().transitions().at(1, 0), denorm));
        EXPECT_TRUE(same_bits(model->model().emissions().at(0, 1), -0.0));
        EXPECT_TRUE(same_bits(model->model().emissions().at(1, 0), DBL_MAX));
    }
}

/// `value` as write_double renders it in a model file.
std::string model_text(double value) {
    std::ostringstream out;
    write_double(out, value);
    return out.str();
}

TEST(ModelIo, EveryDoubleStoringKindRoundTripsBitExactly) {
    // Config doubles at the edges each kind's validation allows: -0.0, the
    // smallest subnormal and DBL_MAX. save -> load -> save must reproduce
    // every byte (a -0 or subnormal that loaded as 0 would save as "0"), and
    // the reloaded model must score bit for bit like the trained one.
    const double denorm = std::numeric_limits<double>::denorm_min();
    struct Case {
        DetectorKind kind;
        DetectorSettings settings;
        std::vector<double> extremes;  // values the saved text must carry
    };
    std::vector<Case> cases(5);
    cases[0].kind = DetectorKind::Markov;
    cases[0].settings.markov.probability_floor = -0.0;
    cases[0].settings.markov.laplace_alpha = DBL_MAX;
    cases[0].extremes = {-0.0, DBL_MAX};
    cases[1].kind = DetectorKind::Markov;
    cases[1].settings.markov.probability_floor = denorm;
    cases[1].settings.markov.laplace_alpha = denorm;
    cases[1].extremes = {denorm};
    cases[2].kind = DetectorKind::NeuralNet;
    cases[2].settings.nn.epochs = 5;
    cases[2].settings.nn.learning_rate = denorm;
    cases[2].settings.nn.momentum = -0.0;
    cases[2].settings.nn.init_scale = denorm;  // subnormal weights, too
    cases[2].settings.nn.probability_floor = denorm;
    cases[2].extremes = {denorm, -0.0};
    cases[3].kind = DetectorKind::TStide;
    cases[3].settings.tstide.rare_threshold = denorm;
    cases[3].extremes = {denorm};
    cases[4].kind = DetectorKind::Rule;
    cases[4].settings.rule.target_precision = denorm;
    cases[4].settings.rule.probability_floor = -0.0;
    cases[4].extremes = {denorm, -0.0};

    const EventStream heldout = test::small_corpus().generate_heldout(2'000, 42);
    for (const Case& c : cases) {
        auto trained = make_detector(c.kind, 4, c.settings);
        trained->train(test::small_corpus().training());
        std::stringstream first;
        save_detector(*trained, first);
        const std::string saved = first.str();
        for (const double value : c.extremes)
            EXPECT_NE(saved.find(model_text(value)), std::string::npos)
                << to_string(c.kind) << " does not store " << model_text(value);
        const auto loaded = load_detector(first);
        std::stringstream second;
        save_detector(*loaded, second);
        EXPECT_EQ(second.str(), saved) << to_string(c.kind);
        const std::vector<double> expected = trained->score(heldout);
        const std::vector<double> actual = loaded->score(heldout);
        ASSERT_EQ(actual.size(), expected.size()) << to_string(c.kind);
        EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                              expected.size() * sizeof(double)),
                  0)
            << to_string(c.kind);
    }
}

TEST(ModelIo, RejectsSymbolIdsBeyondSymbolRange) {
    // 4294967298 = 2^32 + 2 must not wrap to symbol 2, which is in range.
    std::istringstream gram("adiv-model 1 stide 3 4 2 0 1 4294967298 5 1 2 3 4");
    EXPECT_THROW((void)load_detector(gram), DataError);
}

TEST(ModelIo, RejectsNegativeSizes) {
    // A `-1` dimension must not wrap to SIZE_MAX.
    std::istringstream window("adiv-model 1 stide -1 4 2 0 1 2 5 1 2 3 4");
    EXPECT_THROW((void)load_detector(window), DataError);
    std::istringstream count("adiv-model 1 stide 3 4 2 0 1 2 -5 1 2 3 4");
    EXPECT_THROW((void)load_detector(count), DataError);
}

/// A saved DW-2 neural-net model whose header field `field` (0 = window,
/// 2 = hidden units, 10 = parameter count) reads `value`.
std::string nn_model_with_header_field(std::size_t field, const std::string& value) {
    DetectorSettings settings;
    settings.nn.epochs = 5;
    auto nn = make_detector(DetectorKind::NeuralNet, 2, settings);
    nn->train(test::small_corpus().training());
    std::ostringstream out;
    save_detector(*nn, out);
    std::istringstream saved(out.str());
    std::string envelope;
    std::string header;
    std::getline(saved, envelope);
    std::getline(saved, header);
    std::istringstream header_in(header);
    std::vector<std::string> fields;
    for (std::string token; header_in >> token;) fields.push_back(token);
    fields.at(field) = value;
    std::string text = envelope + '\n';
    for (const std::string& token : fields) text += token + ' ';
    text += '\n';
    for (std::string line; std::getline(saved, line);) text += line + '\n';
    return text;
}

TEST(ModelIo, RejectsMaximalNnParameterCount) {
    // Must not size a vector from the count before reading the parameters.
    std::istringstream in(nn_model_with_header_field(10, "18446744073709551615"));
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, RejectsNnHiddenUnitsBeyondItsParameters) {
    // Must not size the network from the header before checking the
    // parameter count against it.
    std::istringstream in(nn_model_with_header_field(2, "1000000000000"));
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, RejectsLaneBrodleyWindowCountsThatWrapOrCannotFit) {
    // (2^62 + 1) windows x 4 symbols wraps to 4 symbols: the file must not
    // load as a one-window database.
    std::istringstream wraps("adiv-model 1 lane-brodley 4 8 4611686018427387905 0 1 2 3");
    EXPECT_THROW((void)load_detector(wraps), DataError);
    // 10^15 windows must not size anything before their symbols arrive.
    std::istringstream huge("adiv-model 1 lane-brodley 4 8 1000000000000000 0 1 2 3");
    EXPECT_THROW((void)load_detector(huge), DataError);
}

TEST(ModelIo, RejectsLookaheadPairsTableSizeThatOverflows) {
    // 3 offsets x 10^11 x 10^11 pair bits overflows size_t.
    std::istringstream in("adiv-model 1 lookahead-pairs 4 100000000000 1 1 0 1");
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, RejectsZeroGramCount) {
    // A stored window with count 0 is malformed; it must neither vanish nor
    // count as a distinct window.
    std::istringstream stide("adiv-model 1 stide 2 8 2 1 2 3 3 4 0");
    EXPECT_THROW((void)load_detector(stide), DataError);
    std::istringstream tstide("adiv-model 1 t-stide 0.005 2 8 1 1 2 0");
    EXPECT_THROW((void)load_detector(tstide), DataError);
}

}  // namespace
}  // namespace adiv
