// Exactness oracle for the MLP training step.
//
// Mlp stores its weights input-major, visits only the nonzero input columns
// in the first layer, never tests a delta for zero, and reuses per-call
// scratch across samples and epochs. All of that is claimed to leave every
// trained weight bit-identical to the plain dense row-major step. This file
// keeps that dense step as a reference and compares raw parameter bytes after
// train_epoch and after train(), and pins NnDetector::save_model bytes to
// digests recorded before the sparse first layer existed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/corpus.hpp"
#include "detect/nn_detector.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace adiv {
namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// The dense full-batch step: every product and every gradient update runs
/// over every input column, with fresh vectors per sample.
class DenseReference {
public:
    explicit DenseReference(const Mlp& init) : config_(init.config()) {
        const std::vector<double> params = init.parameters();
        const auto& sizes = config_.layer_sizes;
        std::size_t offset = 0;
        for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
            Layer layer;
            layer.in = sizes[i];
            layer.out = sizes[i + 1];
            const auto at = [&](std::size_t n) {
                return params.begin() + static_cast<std::ptrdiff_t>(n);
            };
            layer.w.assign(at(offset), at(offset + layer.in * layer.out));
            offset += layer.in * layer.out;
            layer.b.assign(at(offset), at(offset + layer.out));
            offset += layer.out;
            layer.vw.assign(layer.in * layer.out, 0.0);
            layer.vb.assign(layer.out, 0.0);
            layers_.push_back(std::move(layer));
        }
    }

    double train_epoch(const std::vector<MlpSample>& batch) {
        std::vector<std::vector<double>> wg;
        std::vector<std::vector<double>> bg;
        for (const Layer& layer : layers_) {
            wg.emplace_back(layer.in * layer.out, 0.0);
            bg.emplace_back(layer.out, 0.0);
        }
        double total_weight = 0.0;
        double total_loss = 0.0;
        for (const MlpSample& sample : batch) {
            const auto acts = forward(sample.input);
            const std::vector<double>& y = acts.back();
            for (std::size_t c = 0; c < y.size(); ++c)
                if (sample.target[c] > 0.0)
                    total_loss -= sample.weight * sample.target[c] *
                                  std::log(std::max(y[c], 1e-300));
            total_weight += sample.weight;

            std::vector<double> delta(y.size());
            for (std::size_t c = 0; c < y.size(); ++c)
                delta[c] = sample.weight * (y[c] - sample.target[c]);
            for (std::size_t i = layers_.size(); i > 0; --i) {
                const std::size_t li = i - 1;
                const Layer& layer = layers_[li];
                const std::vector<double>& in_act = acts[li];
                for (std::size_t r = 0; r < delta.size(); ++r) {
                    const double d = delta[r];
                    if (d == 0.0) continue;
                    for (std::size_t c = 0; c < layer.in; ++c)
                        wg[li][r * layer.in + c] += d * in_act[c];
                    bg[li][r] += d;
                }
                if (li == 0) break;
                std::vector<double> prev(layer.in, 0.0);
                for (std::size_t r = 0; r < layer.out; ++r) {
                    const double xr = delta[r];
                    if (xr == 0.0) continue;
                    for (std::size_t c = 0; c < layer.in; ++c)
                        prev[c] += layer.w[r * layer.in + c] * xr;
                }
                for (std::size_t c = 0; c < prev.size(); ++c)
                    prev[c] *= in_act[c] * (1.0 - in_act[c]);
                delta = std::move(prev);
            }
        }
        const double step = config_.learning_rate / total_weight;
        for (std::size_t li = 0; li < layers_.size(); ++li) {
            Layer& layer = layers_[li];
            for (std::size_t i = 0; i < layer.w.size(); ++i) {
                layer.vw[i] = config_.momentum * layer.vw[i] - step * wg[li][i];
                layer.w[i] += layer.vw[i];
            }
            for (std::size_t r = 0; r < layer.out; ++r) {
                layer.vb[r] = config_.momentum * layer.vb[r] - step * bg[li][r];
                layer.b[r] += layer.vb[r];
            }
        }
        return total_loss / total_weight;
    }

    /// Same layout as Mlp::parameters(): per layer, weights then bias.
    [[nodiscard]] std::vector<double> parameters() const {
        std::vector<double> out;
        for (const Layer& layer : layers_) {
            out.insert(out.end(), layer.w.begin(), layer.w.end());
            out.insert(out.end(), layer.b.begin(), layer.b.end());
        }
        return out;
    }

private:
    struct Layer {
        std::size_t in = 0;
        std::size_t out = 0;
        std::vector<double> w;  // out x in, row-major
        std::vector<double> b;
        std::vector<double> vw;
        std::vector<double> vb;
    };

    [[nodiscard]] std::vector<std::vector<double>> forward(
        const std::vector<double>& input) const {
        std::vector<std::vector<double>> acts{input};
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            const Layer& layer = layers_[i];
            std::vector<double> z(layer.out);
            for (std::size_t r = 0; r < layer.out; ++r) {
                double acc = 0.0;
                for (std::size_t c = 0; c < layer.in; ++c)
                    acc += layer.w[r * layer.in + c] * acts[i][c];
                z[r] = acc + layer.b[r];
            }
            if (i + 1 == layers_.size()) {
                softmax_inplace(z);
            } else {
                for (double& v : z) v = sigmoid(v);
            }
            acts.push_back(std::move(z));
        }
        return acts;
    }

    MlpConfig config_;
    std::vector<Layer> layers_;
};

enum class InputKind { OneHot, Dense, MixedZeros };

/// 40 samples with soft targets and uneven weights. One-hot inputs encode a
/// context over a 5-symbol alphabet, like the NN detector's: 4 symbols for
/// 20 inputs, and the columns past the last whole symbol stay zero.
std::vector<MlpSample> make_batch(InputKind kind, std::size_t inputs,
                                  std::size_t outputs, std::uint64_t seed) {
    constexpr std::size_t kAlphabet = 5;
    const std::size_t context = inputs / kAlphabet;
    Rng rng(seed);
    std::vector<MlpSample> batch(40);
    for (MlpSample& s : batch) {
        s.input.assign(inputs, 0.0);
        for (std::size_t c = 0; c < s.input.size(); ++c) {
            switch (kind) {
                case InputKind::OneHot:
                    break;
                case InputKind::Dense:
                    s.input[c] = rng.uniform(-1.0, 1.0);
                    break;
                case InputKind::MixedZeros: {
                    // Both signed zeros appear, so the sparse path must skip
                    // -0.0 as well as +0.0.
                    const std::uint64_t pick = rng.below(3);
                    s.input[c] = pick == 0   ? 0.0
                                 : pick == 1 ? -0.0
                                             : rng.uniform(-2.0, 2.0);
                    break;
                }
            }
        }
        if (kind == InputKind::OneHot)
            for (std::size_t k = 0; k < context; ++k)
                s.input[k * kAlphabet + rng.below(kAlphabet)] = 1.0;
        s.target.assign(outputs, 0.0);
        double total = 0.0;
        for (double& t : s.target) {
            t = rng.chance(0.5) ? rng.uniform() : 0.0;
            total += t;
        }
        if (total == 0.0) {
            s.target[0] = 1.0;
        } else {
            for (double& t : s.target) t /= total;
        }
        s.weight = rng.uniform(0.5, 3.0);
    }
    return batch;
}

void expect_bit_identical_training(InputKind kind, std::vector<std::size_t> sizes) {
    MlpConfig cfg;
    cfg.layer_sizes = std::move(sizes);
    cfg.learning_rate = 0.5;
    cfg.momentum = 0.9;
    cfg.seed = 11;
    Mlp net(cfg);
    DenseReference reference(net);
    const auto batch =
        make_batch(kind, cfg.layer_sizes.front(), cfg.layer_sizes.back(), 29);

    constexpr std::size_t kEpochs = 50;
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
        const double got = net.train_epoch(batch);
        const double want = reference.train_epoch(batch);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "loss, epoch " << epoch;
    }
    const std::vector<double> got = net.parameters();
    const std::vector<double> want = reference.parameters();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);

    // train() builds its scratch once for all epochs and must end on the
    // same bytes.
    Mlp trained(cfg);
    (void)trained.train(batch, kEpochs);
    const std::vector<double> via_train = trained.parameters();
    ASSERT_EQ(via_train.size(), want.size());
    EXPECT_EQ(std::memcmp(via_train.data(), want.data(), want.size() * sizeof(double)), 0)
        << "Mlp::train";
}

TEST(MlpExactness, OneHotInputsMatchDenseReference) {
    expect_bit_identical_training(InputKind::OneHot, {20, 6, 5});
}

TEST(MlpExactness, DenseInputsMatchDenseReference) {
    expect_bit_identical_training(InputKind::Dense, {20, 6, 5});
}

TEST(MlpExactness, MixedZeroInputsMatchDenseReference) {
    expect_bit_identical_training(InputKind::MixedZeros, {20, 6, 5});
}

TEST(MlpExactness, DeeperNetworkMatchesDenseReference) {
    expect_bit_identical_training(InputKind::MixedZeros, {20, 7, 6, 5});
}

TEST(MlpExactness, SingleLayerNetworkMatchesDenseReference) {
    expect_bit_identical_training(InputKind::OneHot, {20, 5});
}

// Matrix keeps 8 outputs of a transposed product in registers and computes
// 4 dot products together; these widths exercise the remainder loops alone
// (7 and 5 wide) and after whole blocks (11 = 8 + 3, 9 = 8 + 1 outputs; 11
// rows = 2 x 4 + 3 dot products).
TEST(MlpExactness, WidthsOffTheBlockMatchDenseReference) {
    expect_bit_identical_training(InputKind::MixedZeros, {13, 7, 5});
    expect_bit_identical_training(InputKind::OneHot, {13, 7, 5});
    expect_bit_identical_training(InputKind::Dense, {13, 11, 9});
    expect_bit_identical_training(InputKind::MixedZeros, {21, 11, 9, 3});
}

std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// Digests of save_model bytes, recorded with the dense training step. A
// mismatch means some trained weight (or the model format) changed.
TEST(MlpExactness, NnDetectorModelBytesMatchGoldenDigests) {
    CorpusSpec spec;
    spec.training_length = 20'000;
    const TrainingCorpus corpus = TrainingCorpus::generate(spec);
    NnDetectorConfig cfg;
    cfg.epochs = 100;

    struct Golden {
        std::size_t window;
        std::uint64_t digest;
    };
    for (const Golden& golden : {Golden{2, 0xcadc4f9fdf0f79c2ULL},
                                 Golden{6, 0xf7eff601c88df352ULL},
                                 Golden{15, 0x6af584573c009856ULL}}) {
        NnDetector detector(golden.window, cfg);
        detector.train(corpus.training());
        std::ostringstream out;
        detector.save_model(out);
        EXPECT_EQ(fnv1a(out.str()), golden.digest)
            << "DW " << golden.window << ": 0x" << std::hex << fnv1a(out.str());
    }
}

}  // namespace
}  // namespace adiv
