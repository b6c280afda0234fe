// Multilayer feed-forward network with sigmoid hidden layers, a softmax
// output layer, and full-batch gradient descent with momentum.
//
// This is the paper's neural-network detector substrate (Debar et al. 1992;
// Zurada's parameters: learning constant, number of hidden nodes, momentum
// constant). The network is trained to approximate the next-symbol
// conditional distribution of the training stream — training samples carry
// SOFT targets (the empirical distribution of continuations for a context)
// and weights (how often the context occurs), so the whole training stream is
// compressed into its distinct contexts without changing the optimum.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace adiv {

struct MlpConfig {
    /// Unit counts per layer, including input and output; at least 2 entries.
    std::vector<std::size_t> layer_sizes;
    double learning_rate = 0.5;   ///< Zurada's learning constant
    double momentum = 0.9;        ///< momentum constant
    double init_scale = 0.5;      ///< uniform weight-init range
    std::uint64_t seed = 7;       ///< weight-init seed
};

/// One weighted training sample with a soft target distribution.
struct MlpSample {
    std::vector<double> input;    ///< size = input layer
    std::vector<double> target;   ///< size = output layer; sums to 1
    double weight = 1.0;          ///< relative contribution to the batch loss
};

class Mlp {
public:
    explicit Mlp(MlpConfig config);

    [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t input_size() const noexcept {
        return config_.layer_sizes.front();
    }
    [[nodiscard]] std::size_t output_size() const noexcept {
        return config_.layer_sizes.back();
    }

    /// Scratch for forward passes: one activation vector per layer. A caller
    /// that runs many passes reuses one, so a pass allocates nothing; each
    /// thread needs its own (a Workspace is never shared, the Mlp may be).
    class Workspace {
    public:
        explicit Workspace(const Mlp& net);

    private:
        friend class Mlp;
        std::vector<std::size_t> nonzero;          ///< input columns != 0, ascending
        std::vector<std::vector<double>> outputs;  ///< outputs[i]: activation of layer i
    };

    /// Softmax class probabilities for one input.
    [[nodiscard]] std::vector<double> forward(std::span<const double> input) const;

    /// The same probabilities, computed in `ws`: the span stays valid until
    /// ws is used again. Bit-identical to forward(input).
    [[nodiscard]] std::span<const double> forward(std::span<const double> input,
                                                  Workspace& ws) const;

    /// Weighted mean cross-entropy of the batch under current weights.
    [[nodiscard]] double loss(std::span<const MlpSample> batch) const;

    /// One full-batch gradient step with momentum; returns the pre-step loss.
    double train_epoch(std::span<const MlpSample> batch);

    /// Runs `epochs` epochs; returns the final loss(). Weights end exactly
    /// as after `epochs` train_epoch calls.
    double train(std::span<const MlpSample> batch, std::size_t epochs);

    /// Flattened weights (for gradient checking and tests): per layer, the
    /// weights row by row (one row per output unit), then the biases.
    [[nodiscard]] std::vector<double> parameters() const;
    void set_parameters(std::span<const double> params);

private:
    // Weights, velocities and gradients are stored input-major (in x out):
    // row c holds input c's weight to every unit, so the products and the
    // gradient updates for one input column run over contiguous doubles.
    struct Layer {
        Matrix weights;
        std::vector<double> bias;
        Matrix weight_velocity;
        std::vector<double> bias_velocity;
        Matrix weight_grad;
        std::vector<double> bias_grad;
    };

    /// Per-call scratch for training, built once from a checked batch: every
    /// sample's nonzero input columns, a Workspace and the delta buffers
    /// (defined in mlp.cpp).
    struct TrainScratch;

    /// Fills ws with the activation of every layer for one input whose
    /// nonzero columns are `nonzero` (ascending); the first layer's product
    /// visits only those columns.
    void forward_internal(std::span<const double> input,
                          std::span<const std::size_t> nonzero, Workspace& ws) const;

    /// One full-batch step; returns the pre-step loss.
    double step(std::span<const MlpSample> batch, TrainScratch& scratch);

    MlpConfig config_;
    std::vector<Layer> layers_;
};

/// Numerically stable softmax over logits, in place.
void softmax_inplace(std::span<double> logits);

}  // namespace adiv
