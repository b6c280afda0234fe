// EnsembleScorer: N OnlineScorers fed one event stream, fused per window by
// a FusionRule — the online, serveable form of the paper's offline
// combinators (core/ensemble.hpp).
//
// Alignment: member i (window dw_i) emits exactly one response per event
// from its dw_i-th onward, so after any shared prefix every member's
// response streams line up by end position — no cross-member buffering.
// Fused frames exist for end positions >= max(dw_i); within one batch,
// member i's response for end position p sits at index p - start_i of its
// batch output, where start_i = max(dw_i, consumed_before + 1). This holds
// for the HMM member too (its per-event fallback emits the same one
// response per event), so any registry detector can join an ensemble.
//
// Determinism: push/push_batch parity is inherited from OnlineScorer
// (bit-identical member responses) and the rule sees frames in stream order
// exactly once, so a serial per-event replay of the same spec over the same
// stream reproduces every fused score bit — the property `adiv_loadgen
// --target 'a+b;fuse=...' --verify` and the shard-determinism suite check.
//
// Hot path: push_batch reuses per-member scratch vectors and a frame
// buffer, all of which keep their capacity across calls, so the serve
// shard loop's allocation-free steady state survives ensemble sessions.
//
// Validation is transactional at the batch level: every event is checked
// against the shared alphabet before ANY member consumes one, so a rejected
// batch leaves all members aligned (a partial consume would desynchronize
// members against a later retry).
//
// Metrics (cumulative across scorers in the registry, like online.*):
//   fusion.fused_windows      counter, fused frames emitted
//   fusion.fused_alarms       counter, fused frames at kMaximalResponse
//   fusion.member_alarms      counter, member maximal responses on fused
//                             frames (summed over members)
//   fusion.suppressed_alarms  counter, fused frames where >= 1 member
//                             alarmed but the fused response did not
//   fusion.threshold gauges are per-scorer (see member_threshold()).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "core/online.hpp"
#include "detect/detector.hpp"
#include "fusion/rules.hpp"
#include "fusion/spec.hpp"
#include "obs/metrics.hpp"

namespace adiv::fusion {

class EnsembleScorer {
public:
    /// Members pair each spec member name with its trained detector, in
    /// spec order. All members must share one alphabet size; detectors must
    /// outlive the scorer. buffer_capacity is per member (0 = scorer
    /// default). Throws InvalidArgument on < 2 members or alphabet mismatch.
    EnsembleScorer(const EnsembleSpec& spec,
                   std::vector<std::shared_ptr<const SequenceDetector>> members,
                   std::size_t buffer_capacity = 0,
                   MetricsRegistry& metrics = global_metrics());

    /// Consumes `count` events through every member and appends one fused
    /// response per completed ensemble window (in stream order) to `out`;
    /// returns the number appended. Throws DataError on an out-of-alphabet
    /// event BEFORE consuming anything (unlike OnlineScorer's valid-prefix
    /// consume; see the alignment note above).
    std::size_t push_batch(const Symbol* events, std::size_t count,
                           std::vector<double>& out);

    /// Single-event convenience over push_batch: returns the fused response
    /// of the window ending at this event, or nullopt while fewer than
    /// window_length() events have been seen.
    std::optional<double> push(Symbol event);

    /// Drops all buffered history in every member and zeroes the
    /// scorer-local counters. Calibration state in the fusion rule is NOT
    /// reset (thresholds keep learning across resets, matching the
    /// decayed-histogram model).
    void reset();

    [[nodiscard]] std::size_t member_count() const noexcept {
        return members_.size();
    }
    [[nodiscard]] const SequenceDetector& member(std::size_t i) const {
        return *members_[i].model;
    }
    /// Fused alarms attributable to member i: its maximal responses on
    /// fused frames (frames before slower members warmed up are not
    /// counted, so member and fused alarm counts compare like for like).
    [[nodiscard]] std::size_t member_alarms(std::size_t i) const {
        return members_[i].alarms;
    }
    /// Member i's current vote threshold (kMaximalResponse for fixed rules).
    [[nodiscard]] double member_threshold(std::size_t i) const {
        return rule_->member_threshold(i);
    }

    [[nodiscard]] const EnsembleSpec& spec() const noexcept { return spec_; }
    [[nodiscard]] const FusionRule& rule() const noexcept { return *rule_; }

    /// max over member window lengths: the first event position that
    /// completes a window in EVERY member, hence the first fused frame.
    [[nodiscard]] std::size_t window_length() const noexcept { return window_; }
    /// The alphabet size every member shares.
    [[nodiscard]] std::size_t alphabet_size() const noexcept {
        return alphabet_size_;
    }

    [[nodiscard]] std::size_t events_consumed() const noexcept {
        return consumed_;
    }
    /// Fused frames emitted.
    [[nodiscard]] std::size_t windows_scored() const noexcept {
        return windows_;
    }
    /// Fused frames whose response was maximal (>= kMaximalResponse).
    [[nodiscard]] std::size_t alarms() const noexcept { return alarms_; }
    /// Fused frames where some member alarmed but the ensemble did not.
    [[nodiscard]] std::size_t suppressed_alarms() const noexcept {
        return suppressed_;
    }

private:
    struct Member {
        std::shared_ptr<const SequenceDetector> model;
        OnlineScorer scorer;
        std::vector<double> scratch;  // batch responses, capacity retained
        std::size_t alarms = 0;       // maximal responses on fused frames
    };

    EnsembleSpec spec_;
    std::vector<Member> members_;
    std::unique_ptr<FusionRule> rule_;
    std::size_t window_;
    std::size_t alphabet_size_;
    std::vector<double> frame_;  // one response per member, capacity retained
    std::vector<double> single_out_;  // push()'s one-slot output buffer
    std::size_t consumed_ = 0;
    std::size_t windows_ = 0;
    std::size_t alarms_ = 0;
    std::size_t suppressed_ = 0;
    Counter& fused_windows_counter_;
    Counter& fused_alarms_counter_;
    Counter& member_alarms_counter_;
    Counter& suppressed_counter_;
};

/// Resolves spec members to detectors (by catalog, file map, ...) and
/// builds the scorer. The resolver is called once per member, in spec
/// order; it may throw (e.g. unknown model), which propagates.
template <typename Resolver>
std::unique_ptr<EnsembleScorer> make_ensemble_scorer(
    const EnsembleSpec& spec, Resolver&& resolve,
    std::size_t buffer_capacity = 0, MetricsRegistry& metrics = global_metrics()) {
    std::vector<std::shared_ptr<const SequenceDetector>> members;
    members.reserve(spec.members.size());
    for (const std::string& name : spec.members) members.push_back(resolve(name));
    return std::make_unique<EnsembleScorer>(spec, std::move(members),
                                            buffer_capacity, metrics);
}

}  // namespace adiv::fusion
