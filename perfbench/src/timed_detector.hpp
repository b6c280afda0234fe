// TimedDetector: the benchmark's SequenceDetector decorator. It forwards
// every call to the wrapped detector and brackets train() and score() in
// "detect.train" / "detect.score" spans tagged with the detector name (and,
// for served models, the client session that owns the wrapper), so the
// traced run attributes detector time without changing the library. The
// engine receives it through the plan's factory; the server receives it as
// a registered model.
#pragma once
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "detect/registry.hpp"

namespace perfbench {

class TimedDetector final : public adiv::SequenceDetector {
public:
    explicit TimedDetector(std::shared_ptr<adiv::SequenceDetector> inner,
                           std::uint32_t session = 0);

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::size_t window_length() const override {
        return inner_->window_length();
    }
    void train(const adiv::EventStream& training) override;
    [[nodiscard]] std::size_t alphabet_size() const override {
        return inner_->alphabet_size();
    }
    [[nodiscard]] std::vector<double> score(
        const adiv::EventStream& test) const override;
    [[nodiscard]] bool window_local() const noexcept override {
        return inner_->window_local();
    }

private:
    std::shared_ptr<adiv::SequenceDetector> inner_;
    const char* tag_;
    std::uint32_t session_;
};

/// Plan factory building registry detectors wrapped in TimedDetector.
[[nodiscard]] adiv::DetectorFactory timed_factory(adiv::DetectorKind kind,
                                                  adiv::DetectorSettings settings = {});

}  // namespace perfbench
