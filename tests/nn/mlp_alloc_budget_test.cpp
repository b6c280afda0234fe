// Executable allocation budget for NN training and the NN score path.
//
// Builds into adiv_alloc_budget_tests, whose global operator new counts
// calls (support/counting_new.hpp).
//
// The training gates are scale-free: in steady state one train_epoch call
// must make the same number of allocations for a batch of N samples as for
// 4N, so no sample allocates; and train() must make as many for 8 epochs as
// for 1, so no epoch allocates. NnDetector::score must make as many for a
// stream as for that stream repeated, so no window allocates.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "detect/nn_detector.hpp"
#include "nn/mlp.hpp"
#include "support/counting_new.hpp"
#include "util/rng.hpp"

namespace adiv {
namespace {

using test::allocations_during;

/// n samples shaped like the NN detector's at DW 15 over 8 symbols: a
/// one-hot 14-symbol context, or dense inputs when `one_hot` is false.
std::vector<MlpSample> make_batch(std::size_t n, bool one_hot, std::uint64_t seed) {
    constexpr std::size_t kContext = 14;
    constexpr std::size_t kAlphabet = 8;
    Rng rng(seed);
    std::vector<MlpSample> batch(n);
    for (MlpSample& s : batch) {
        s.input.assign(kContext * kAlphabet, 0.0);
        for (std::size_t k = 0; k < kContext; ++k) {
            if (one_hot) {
                s.input[k * kAlphabet + rng.below(kAlphabet)] = 1.0;
            } else {
                for (std::size_t a = 0; a < kAlphabet; ++a)
                    s.input[k * kAlphabet + a] = rng.uniform(-1.0, 1.0);
            }
        }
        s.target.assign(kAlphabet, 0.0);
        s.target[rng.below(kAlphabet)] = 1.0;
        s.weight = rng.uniform(1.0, 4.0);
    }
    return batch;
}

void expect_epoch_allocations_independent_of_batch_size(bool one_hot) {
    MlpConfig cfg;
    cfg.layer_sizes = {14 * 8, 16, 8};
    Mlp net(cfg);
    const auto small = make_batch(64, one_hot, 5);
    const auto large = make_batch(4 * 64, one_hot, 6);
    net.train_epoch(small);  // warm-up: first-touch allocations are not per sample
    const std::uint64_t for_n = allocations_during([&] { net.train_epoch(small); });
    const std::uint64_t for_4n = allocations_during([&] { net.train_epoch(large); });
    EXPECT_EQ(for_n, for_4n) << "train_epoch allocates per sample";
    // Every Mlp::train_epoch allocation is per-call scratch; pin that it
    // really is a handful, not a count that merely happens to repeat.
    EXPECT_LE(for_n, 16u);
}

TEST(MlpAllocBudget, OneHotEpochAllocationsIndependentOfBatchSize) {
    expect_epoch_allocations_independent_of_batch_size(true);
}

TEST(MlpAllocBudget, DenseEpochAllocationsIndependentOfBatchSize) {
    expect_epoch_allocations_independent_of_batch_size(false);
}

void expect_train_allocations_independent_of_epochs(bool one_hot) {
    MlpConfig cfg;
    cfg.layer_sizes = {14 * 8, 16, 8};
    Mlp net(cfg);
    const auto batch = make_batch(64, one_hot, 7);
    (void)net.train(batch, 1);  // warm-up
    const std::uint64_t one = allocations_during([&] { (void)net.train(batch, 1); });
    const std::uint64_t eight = allocations_during([&] { (void)net.train(batch, 8); });
    EXPECT_EQ(one, eight) << "Mlp::train allocates per epoch";
}

TEST(MlpAllocBudget, OneHotTrainAllocationsIndependentOfEpochs) {
    expect_train_allocations_independent_of_epochs(true);
}

TEST(MlpAllocBudget, DenseTrainAllocationsIndependentOfEpochs) {
    expect_train_allocations_independent_of_epochs(false);
}

TEST(MlpAllocBudget, NnScoreAllocationsIndependentOfStreamRepeats) {
    Sequence events;
    for (int i = 0; i < 40; ++i)
        for (Symbol s = 0; s < 8; ++s) events.push_back(s);
    NnDetectorConfig cfg;
    cfg.epochs = 20;
    NnDetector detector(6, cfg);
    detector.train(EventStream(8, std::move(events)));

    // A stream with unseen contexts, and the same stream four times over.
    // `once` is itself a random block repeated, so the windows that span two
    // copies are windows `once` already has: the repeats add windows but no
    // distinct context.
    Rng rng(3);
    Sequence block;
    for (int i = 0; i < 150; ++i) block.push_back(static_cast<Symbol>(rng.below(8)));
    Sequence once = block;
    once.insert(once.end(), block.begin(), block.end());
    Sequence four;
    for (int r = 0; r < 4; ++r) four.insert(four.end(), once.begin(), once.end());
    const EventStream a(8, once);
    const EventStream b(8, std::move(four));
    (void)detector.score(a);  // warm-up
    const std::uint64_t for_once = allocations_during([&] { (void)detector.score(a); });
    const std::uint64_t for_four = allocations_during([&] { (void)detector.score(b); });
    // The score cache may allocate per distinct context, never per window.
    EXPECT_EQ(for_once, for_four) << "NnDetector::score allocates per window";
}

}  // namespace
}  // namespace adiv
