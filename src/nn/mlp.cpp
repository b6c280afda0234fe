#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace adiv {

void softmax_inplace(std::span<double> logits) {
    double max_logit = logits[0];
    for (double v : logits) max_logit = std::max(max_logit, v);
    double sum = 0.0;
    for (double& v : logits) {
        v = std::exp(v - max_logit);
        sum += v;
    }
    for (double& v : logits) v /= sum;
}

namespace {
double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
    ADIV_REQUIRE(config_.layer_sizes.size() >= 2,
                 "network needs at least input and output layers");
    for (std::size_t s : config_.layer_sizes)
        ADIV_REQUIRE(s > 0, "layer sizes must be positive");
    ADIV_REQUIRE(config_.learning_rate > 0.0, "learning rate must be positive");
    ADIV_REQUIRE(config_.momentum >= 0.0 && config_.momentum < 1.0,
                 "momentum must be in [0,1)");

    Rng rng(config_.seed);
    layers_.reserve(config_.layer_sizes.size() - 1);
    for (std::size_t i = 0; i + 1 < config_.layer_sizes.size(); ++i) {
        Layer layer;
        const std::size_t in = config_.layer_sizes[i];
        const std::size_t out = config_.layer_sizes[i + 1];
        layer.weights = Matrix(out, in);
        layer.weights.randomize(rng, config_.init_scale);
        layer.bias.assign(out, 0.0);
        layer.weight_velocity = Matrix(out, in);
        layer.bias_velocity.assign(out, 0.0);
        layers_.push_back(std::move(layer));
    }
}

// Scratch for one call, sized once and reused across its samples, so the
// sample loop never allocates. Never a member: forward() runs concurrently
// on one shared trained model.
struct Mlp::Workspace {
    explicit Workspace(const Mlp& net) {
        nonzero.reserve(net.input_size());
        outputs.reserve(net.layers_.size());
        for (const Layer& layer : net.layers_) outputs.emplace_back(layer.bias.size());
    }

    std::vector<std::size_t> nonzero;          ///< input columns != 0, ascending
    std::vector<std::vector<double>> outputs;  ///< outputs[i]: activation of layer i
};

void Mlp::forward_internal(std::span<const double> input, Workspace& ws) const {
    ADIV_ASSERT(input.size() == input_size());
    ws.nonzero.clear();
    for (std::size_t c = 0; c < input.size(); ++c)
        if (input[c] != 0.0) ws.nonzero.push_back(c);
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const Layer& layer = layers_[i];
        const std::span<double> z = ws.outputs[i];
        if (i == 0)
            layer.weights.multiply_sparse(input, ws.nonzero, z);
        else
            layer.weights.multiply(ws.outputs[i - 1], z);
        for (std::size_t r = 0; r < z.size(); ++r) z[r] += layer.bias[r];
        if (i + 1 == layers_.size()) {
            softmax_inplace(z);
        } else {
            for (double& v : z) v = sigmoid(v);
        }
    }
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
    ADIV_REQUIRE(input.size() == input_size(), "input size mismatch");
    Workspace ws(*this);
    forward_internal(input, ws);
    return std::move(ws.outputs.back());
}

double Mlp::loss(std::span<const MlpSample> batch) const {
    ADIV_REQUIRE(!batch.empty(), "loss over empty batch");
    Workspace ws(*this);
    double total_weight = 0.0;
    double total_loss = 0.0;
    for (const MlpSample& sample : batch) {
        ADIV_REQUIRE(sample.input.size() == input_size(), "input size mismatch");
        forward_internal(sample.input, ws);
        const std::vector<double>& y = ws.outputs.back();
        double ce = 0.0;
        for (std::size_t c = 0; c < y.size(); ++c) {
            if (sample.target[c] > 0.0)
                ce -= sample.target[c] * std::log(std::max(y[c], 1e-300));
        }
        total_loss += sample.weight * ce;
        total_weight += sample.weight;
    }
    return total_loss / total_weight;
}

double Mlp::train_epoch(std::span<const MlpSample> batch) {
    ADIV_REQUIRE(!batch.empty(), "training over empty batch");
    for (const MlpSample& sample : batch) {
        ADIV_REQUIRE(sample.input.size() == input_size(), "sample input size mismatch");
        ADIV_REQUIRE(sample.target.size() == output_size(),
                     "sample target size mismatch");
        ADIV_REQUIRE(sample.weight > 0.0, "sample weight must be positive");
    }

    std::vector<Matrix> weight_grads;
    std::vector<std::vector<double>> bias_grads;
    weight_grads.reserve(layers_.size());
    bias_grads.reserve(layers_.size());
    for (const Layer& layer : layers_) {
        weight_grads.emplace_back(layer.weights.rows(), layer.weights.cols());
        bias_grads.emplace_back(layer.bias.size(), 0.0);
    }

    Workspace ws(*this);
    // Deltas are never input-sized: backpropagation stops at the first layer.
    const std::size_t widest =
        *std::max_element(config_.layer_sizes.begin() + 1, config_.layer_sizes.end());
    std::vector<double> delta_buf(widest);
    std::vector<double> prev_buf(widest);

    double total_weight = 0.0;
    double total_loss = 0.0;
    for (const MlpSample& sample : batch) {
        forward_internal(sample.input, ws);
        const std::vector<double>& y = ws.outputs.back();
        for (std::size_t c = 0; c < y.size(); ++c)
            if (sample.target[c] > 0.0)
                total_loss -=
                    sample.weight * sample.target[c] * std::log(std::max(y[c], 1e-300));
        total_weight += sample.weight;

        // Softmax + cross-entropy: output delta is (y - t), scaled by weight.
        std::span<double> delta(delta_buf.data(), y.size());
        for (std::size_t c = 0; c < y.size(); ++c)
            delta[c] = sample.weight * (y[c] - sample.target[c]);

        for (std::size_t li = layers_.size() - 1; li > 0; --li) {
            const std::vector<double>& in_act = ws.outputs[li - 1];
            Matrix& wg = weight_grads[li];
            std::vector<double>& bg = bias_grads[li];
            for (std::size_t r = 0; r < delta.size(); ++r) {
                const double d = delta[r];
                if (d == 0.0) continue;
                auto row = wg.row(r);
                for (std::size_t c = 0; c < in_act.size(); ++c)
                    row[c] += d * in_act[c];
                bg[r] += d;
            }
            const std::span<double> prev_delta(prev_buf.data(), in_act.size());
            layers_[li].weights.multiply_transposed(delta, prev_delta);
            for (std::size_t c = 0; c < prev_delta.size(); ++c)
                prev_delta[c] *= in_act[c] * (1.0 - in_act[c]);  // sigmoid'
            std::swap(delta_buf, prev_buf);
            delta = std::span<double>(delta_buf.data(), in_act.size());
        }

        // First layer: a zero input column adds only +-0 to its gradient
        // entries, so visiting the nonzero columns leaves every sum unchanged.
        const std::span<const double> input = sample.input;
        for (std::size_t r = 0; r < delta.size(); ++r) {
            const double d = delta[r];
            if (d == 0.0) continue;
            auto row = weight_grads[0].row(r);
            for (std::size_t c : ws.nonzero) row[c] += d * input[c];
            bias_grads[0][r] += d;
        }
    }

    const double step = config_.learning_rate / total_weight;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        Layer& layer = layers_[li];
        auto vel = layer.weight_velocity.flat();
        auto grad = weight_grads[li].flat();
        auto w = layer.weights.flat();
        for (std::size_t i = 0; i < vel.size(); ++i) {
            vel[i] = config_.momentum * vel[i] - step * grad[i];
            w[i] += vel[i];
        }
        for (std::size_t r = 0; r < layer.bias.size(); ++r) {
            layer.bias_velocity[r] =
                config_.momentum * layer.bias_velocity[r] - step * bias_grads[li][r];
            layer.bias[r] += layer.bias_velocity[r];
        }
    }
    return total_loss / total_weight;
}

double Mlp::train(std::span<const MlpSample> batch, std::size_t epochs) {
    for (std::size_t e = 0; e < epochs; ++e) train_epoch(batch);
    return loss(batch);
}

std::vector<double> Mlp::parameters() const {
    std::vector<double> out;
    for (const Layer& layer : layers_) {
        const auto flat = layer.weights.flat();
        out.insert(out.end(), flat.begin(), flat.end());
        out.insert(out.end(), layer.bias.begin(), layer.bias.end());
    }
    return out;
}

void Mlp::set_parameters(std::span<const double> params) {
    std::size_t offset = 0;
    for (Layer& layer : layers_) {
        auto flat = layer.weights.flat();
        ADIV_REQUIRE(offset + flat.size() + layer.bias.size() <= params.size(),
                     "parameter vector too short");
        std::copy(params.begin() + static_cast<std::ptrdiff_t>(offset),
                  params.begin() + static_cast<std::ptrdiff_t>(offset + flat.size()),
                  flat.begin());
        offset += flat.size();
        std::copy(params.begin() + static_cast<std::ptrdiff_t>(offset),
                  params.begin() +
                      static_cast<std::ptrdiff_t>(offset + layer.bias.size()),
                  layer.bias.begin());
        offset += layer.bias.size();
    }
    ADIV_REQUIRE(offset == params.size(), "parameter vector size mismatch");
}

}  // namespace adiv
