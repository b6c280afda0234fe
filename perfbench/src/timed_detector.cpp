#include "timed_detector.hpp"

#include <utility>

#include "spans.hpp"

namespace perfbench {

TimedDetector::TimedDetector(std::shared_ptr<adiv::SequenceDetector> inner,
                             std::uint32_t session)
    : inner_(std::move(inner)), tag_(intern(inner_->name())), session_(session) {}

void TimedDetector::train(const adiv::EventStream& training) {
    ScopedSpan span("detect.train", tag_, session_);
    span.set_items(training.size());
    inner_->train(training);
}

std::vector<double> TimedDetector::score(const adiv::EventStream& test) const {
    ScopedSpan span("detect.score", tag_, session_);
    std::vector<double> responses = inner_->score(test);
    span.set_items(responses.size());
    return responses;
}

adiv::DetectorFactory timed_factory(adiv::DetectorKind kind,
                                    adiv::DetectorSettings settings) {
    return [kind, settings = std::move(settings)](std::size_t window_length)
               -> std::unique_ptr<adiv::SequenceDetector> {
        return std::make_unique<TimedDetector>(
            adiv::make_detector(kind, window_length, settings));
    };
}

}  // namespace perfbench
