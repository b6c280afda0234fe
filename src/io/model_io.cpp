#include "io/model_io.hpp"

#include <fstream>
#include <ostream>

#include "detect/hmm_detector.hpp"
#include "detect/instrumented.hpp"
#include "detect/lane_brodley.hpp"
#include "detect/lookahead_pairs.hpp"
#include "detect/markov.hpp"
#include "detect/nn_detector.hpp"
#include "detect/rule_detector.hpp"
#include "detect/stide.hpp"
#include "detect/tstide.hpp"
#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

namespace {
constexpr int kFormatVersion = 1;
}  // namespace

void save_detector(const SequenceDetector& detector, std::ostream& out) {
    // The observability decorator forwards name() but is not the concrete
    // type the casts below expect; persist what it wraps.
    if (const auto* instrumented =
            dynamic_cast<const InstrumentedDetector*>(&detector)) {
        save_detector(instrumented->inner(), out);
        return;
    }
    const DetectorKind kind = detector_kind_from_string(detector.name());
    out << "adiv-model " << kFormatVersion << ' ' << to_string(kind) << '\n';
    switch (kind) {
        case DetectorKind::Stide:
            dynamic_cast<const StideDetector&>(detector).save_model(out);
            return;
        case DetectorKind::TStide:
            dynamic_cast<const TstideDetector&>(detector).save_model(out);
            return;
        case DetectorKind::Markov:
            dynamic_cast<const MarkovDetector&>(detector).save_model(out);
            return;
        case DetectorKind::LaneBrodley:
            dynamic_cast<const LaneBrodleyDetector&>(detector).save_model(out);
            return;
        case DetectorKind::NeuralNet:
            dynamic_cast<const NnDetector&>(detector).save_model(out);
            return;
        case DetectorKind::Hmm:
            dynamic_cast<const HmmDetector&>(detector).save_model(out);
            return;
        case DetectorKind::Rule:
            dynamic_cast<const RuleDetector&>(detector).save_model(out);
            return;
        case DetectorKind::LookaheadPairs:
            dynamic_cast<const LookaheadPairsDetector&>(detector).save_model(out);
            return;
    }
    ADIV_UNREACHABLE("unhandled detector kind");
}

std::unique_ptr<SequenceDetector> load_detector(std::istream& in) {
    expect_tag(in, "adiv-model");
    const std::uint64_t version = read_number<std::uint64_t>(in, "format version");
    require_data(version == kFormatVersion,
                 "unsupported adiv-model format version " + std::to_string(version));
    const DetectorKind kind =
        detector_kind_from_string(read_token(in, "detector kind"));
    switch (kind) {
        case DetectorKind::Stide:
            return std::make_unique<StideDetector>(StideDetector::load_model(in));
        case DetectorKind::TStide:
            return std::make_unique<TstideDetector>(TstideDetector::load_model(in));
        case DetectorKind::Markov:
            return std::make_unique<MarkovDetector>(MarkovDetector::load_model(in));
        case DetectorKind::LaneBrodley:
            return std::make_unique<LaneBrodleyDetector>(
                LaneBrodleyDetector::load_model(in));
        case DetectorKind::NeuralNet:
            return std::make_unique<NnDetector>(NnDetector::load_model(in));
        case DetectorKind::Hmm:
            return std::make_unique<HmmDetector>(HmmDetector::load_model(in));
        case DetectorKind::Rule:
            return std::make_unique<RuleDetector>(RuleDetector::load_model(in));
        case DetectorKind::LookaheadPairs:
            return std::make_unique<LookaheadPairsDetector>(
                LookaheadPairsDetector::load_model(in));
    }
    ADIV_UNREACHABLE("unhandled detector kind");
}

void save_detector_file(const SequenceDetector& detector, const std::string& path) {
    std::ofstream out(path);
    require_data(out.good(), "cannot open '" + path + "' for writing");
    save_detector(detector, out);
    out.flush();
    require_data(out.good(), "write to '" + path + "' failed");
}

std::unique_ptr<SequenceDetector> load_detector_file(const std::string& path) {
    std::ifstream in(path);
    require_data(in.good(), "cannot open '" + path + "' for reading");
    return load_detector(in);
}

}  // namespace adiv
