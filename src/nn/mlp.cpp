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

/// Appends the input's nonzero columns, ascending.
void append_nonzero(std::span<const double> input, std::vector<std::size_t>& out) {
    for (std::size_t c = 0; c < input.size(); ++c)
        if (input[c] != 0.0) out.push_back(c);
}
}  // namespace

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
    ADIV_REQUIRE(config_.layer_sizes.size() >= 2,
                 "network needs at least input and output layers");
    for (std::size_t s : config_.layer_sizes)
        ADIV_REQUIRE(s > 0, "layer sizes must be positive");
    ADIV_REQUIRE(config_.learning_rate > 0.0, "learning rate must be positive");
    ADIV_REQUIRE(config_.momentum >= 0.0 && config_.momentum < 1.0,
                 "momentum must be in [0,1)");
    ADIV_REQUIRE(config_.init_scale >= 0.0, "init scale must be non-negative");

    Rng rng(config_.seed);
    layers_.reserve(config_.layer_sizes.size() - 1);
    for (std::size_t i = 0; i + 1 < config_.layer_sizes.size(); ++i) {
        Layer layer;
        const std::size_t in = config_.layer_sizes[i];
        const std::size_t out = config_.layer_sizes[i + 1];
        layer.weights = Matrix(in, out);
        // Drawn unit by unit, in parameters() order.
        for (std::size_t r = 0; r < out; ++r)
            for (std::size_t c = 0; c < in; ++c)
                layer.weights.at(c, r) =
                    rng.uniform(-config_.init_scale, config_.init_scale);
        layer.bias.assign(out, 0.0);
        layer.weight_velocity = Matrix(in, out);
        layer.bias_velocity.assign(out, 0.0);
        layer.weight_grad = Matrix(in, out);
        layer.bias_grad.assign(out, 0.0);
        layers_.push_back(std::move(layer));
    }
}

// Sized once and reused across samples or calls, so a pass never allocates.
// Never a member: forward() runs concurrently on one shared trained model.
Mlp::Workspace::Workspace(const Mlp& net) {
    nonzero.reserve(net.input_size());
    outputs.reserve(net.layers_.size());
    for (const Layer& layer : net.layers_) outputs.emplace_back(layer.bias.size());
}

struct Mlp::TrainScratch {
    /// Checks every sample against the network, then builds the scratch.
    TrainScratch(const Mlp& net, std::span<const MlpSample> batch) : ws(net) {
        ADIV_REQUIRE(!batch.empty(), "training over empty batch");
        for (const MlpSample& sample : batch) {
            ADIV_REQUIRE(sample.input.size() == net.input_size(),
                         "sample input size mismatch");
            ADIV_REQUIRE(sample.target.size() == net.output_size(),
                         "sample target size mismatch");
            ADIV_REQUIRE(sample.weight > 0.0, "sample weight must be positive");
        }
        // Count first, so the column list is one exact allocation.
        offsets.reserve(batch.size() + 1);
        offsets.push_back(0);
        for (const MlpSample& sample : batch)
            offsets.push_back(offsets.back() +
                              static_cast<std::size_t>(std::count_if(
                                  sample.input.begin(), sample.input.end(),
                                  [](double v) { return v != 0.0; })));
        columns.reserve(offsets.back());
        for (const MlpSample& sample : batch) append_nonzero(sample.input, columns);
        // Deltas are never input-sized: backpropagation stops at the first layer.
        const auto& sizes = net.config_.layer_sizes;
        const std::size_t widest = *std::max_element(sizes.begin() + 1, sizes.end());
        delta.resize(widest);
        prev.resize(widest);
    }

    [[nodiscard]] std::span<const std::size_t> nonzero(std::size_t sample) const {
        return std::span<const std::size_t>(columns).subspan(
            offsets[sample], offsets[sample + 1] - offsets[sample]);
    }

    std::vector<std::size_t> offsets;  ///< sample i's columns: [offsets[i], offsets[i+1])
    std::vector<std::size_t> columns;  ///< every sample's nonzero input columns
    Workspace ws;
    std::vector<double> delta;
    std::vector<double> prev;
};

void Mlp::forward_internal(std::span<const double> input,
                           std::span<const std::size_t> nonzero, Workspace& ws) const {
    ADIV_ASSERT(input.size() == input_size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const Layer& layer = layers_[i];
        const std::span<double> z = ws.outputs[i];
        if (i == 0)
            layer.weights.multiply_transposed_sparse(input, nonzero, z);
        else
            layer.weights.multiply_transposed(ws.outputs[i - 1], z);
        for (std::size_t r = 0; r < z.size(); ++r) z[r] += layer.bias[r];
        if (i + 1 == layers_.size()) {
            softmax_inplace(z);
        } else {
            for (double& v : z) v = sigmoid(v);
        }
    }
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
    Workspace ws(*this);
    (void)forward(input, ws);
    return std::move(ws.outputs.back());
}

std::span<const double> Mlp::forward(std::span<const double> input,
                                     Workspace& ws) const {
    ADIV_REQUIRE(input.size() == input_size(), "input size mismatch");
    ADIV_ASSERT(ws.outputs.size() == layers_.size() &&
                ws.outputs.back().size() == output_size());
    ws.nonzero.clear();
    append_nonzero(input, ws.nonzero);
    forward_internal(input, ws.nonzero, ws);
    return ws.outputs.back();
}

double Mlp::loss(std::span<const MlpSample> batch) const {
    ADIV_REQUIRE(!batch.empty(), "loss over empty batch");
    Workspace ws(*this);
    double total_weight = 0.0;
    double total_loss = 0.0;
    for (const MlpSample& sample : batch) {
        const std::span<const double> y = forward(sample.input, ws);
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

double Mlp::step(std::span<const MlpSample> batch, TrainScratch& scratch) {
    for (Layer& layer : layers_) {
        layer.weight_grad.fill(0.0);
        std::fill(layer.bias_grad.begin(), layer.bias_grad.end(), 0.0);
    }

    Workspace& ws = scratch.ws;
    double total_weight = 0.0;
    double total_loss = 0.0;
    for (std::size_t s = 0; s < batch.size(); ++s) {
        const MlpSample& sample = batch[s];
        const std::span<const std::size_t> nonzero = scratch.nonzero(s);
        forward_internal(sample.input, nonzero, ws);
        const std::vector<double>& y = ws.outputs.back();
        for (std::size_t c = 0; c < y.size(); ++c)
            if (sample.target[c] > 0.0)
                total_loss -=
                    sample.weight * sample.target[c] * std::log(std::max(y[c], 1e-300));
        total_weight += sample.weight;

        // Softmax + cross-entropy: output delta is (y - t), scaled by weight.
        std::span<double> delta(scratch.delta.data(), y.size());
        for (std::size_t c = 0; c < y.size(); ++c)
            delta[c] = sample.weight * (y[c] - sample.target[c]);

        // Every gradient entry starts at +0.0, so the zero terms a zero delta
        // or a zero input would add leave it unchanged (DESIGN section 13):
        // the first layer visits only the nonzero input columns, and no loop
        // tests a delta for zero.
        for (std::size_t li = layers_.size(); li-- > 0;) {
            Layer& layer = layers_[li];
            const std::span<const double> in_act =
                li == 0 ? std::span<const double>(sample.input) : ws.outputs[li - 1];
            const auto add_gradient = [&](std::size_t c) {
                const double x = in_act[c];
                const std::span<double> g = layer.weight_grad.row(c);
                for (std::size_t r = 0; r < delta.size(); ++r) g[r] += delta[r] * x;
            };
            if (li == 0) {
                for (std::size_t c : nonzero) add_gradient(c);
            } else {
                for (std::size_t c = 0; c < in_act.size(); ++c) add_gradient(c);
            }
            for (std::size_t r = 0; r < delta.size(); ++r) layer.bias_grad[r] += delta[r];
            if (li == 0) break;

            const std::span<double> prev(scratch.prev.data(), in_act.size());
            layer.weights.multiply(delta, prev);
            for (std::size_t c = 0; c < prev.size(); ++c)
                prev[c] *= in_act[c] * (1.0 - in_act[c]);  // sigmoid'
            std::swap(scratch.delta, scratch.prev);
            delta = std::span<double>(scratch.delta.data(), in_act.size());
        }
    }

    const double rate = config_.learning_rate / total_weight;
    for (Layer& layer : layers_) {
        auto vel = layer.weight_velocity.flat();
        auto grad = layer.weight_grad.flat();
        auto w = layer.weights.flat();
        for (std::size_t i = 0; i < vel.size(); ++i) {
            vel[i] = config_.momentum * vel[i] - rate * grad[i];
            w[i] += vel[i];
        }
        for (std::size_t r = 0; r < layer.bias.size(); ++r) {
            layer.bias_velocity[r] =
                config_.momentum * layer.bias_velocity[r] - rate * layer.bias_grad[r];
            layer.bias[r] += layer.bias_velocity[r];
        }
    }
    return total_loss / total_weight;
}

double Mlp::train_epoch(std::span<const MlpSample> batch) {
    TrainScratch scratch(*this, batch);
    return step(batch, scratch);
}

double Mlp::train(std::span<const MlpSample> batch, std::size_t epochs) {
    TrainScratch scratch(*this, batch);
    for (std::size_t e = 0; e < epochs; ++e) step(batch, scratch);
    return loss(batch);
}

std::vector<double> Mlp::parameters() const {
    std::vector<double> out;
    for (const Layer& layer : layers_) {
        const Matrix& w = layer.weights;
        for (std::size_t r = 0; r < w.cols(); ++r)
            for (std::size_t c = 0; c < w.rows(); ++c) out.push_back(w.at(c, r));
        out.insert(out.end(), layer.bias.begin(), layer.bias.end());
    }
    return out;
}

void Mlp::set_parameters(std::span<const double> params) {
    std::size_t offset = 0;
    for (Layer& layer : layers_) {
        Matrix& w = layer.weights;
        ADIV_REQUIRE(offset + w.flat().size() + layer.bias.size() <= params.size(),
                     "parameter vector too short");
        for (std::size_t r = 0; r < w.cols(); ++r)
            for (std::size_t c = 0; c < w.rows(); ++c) w.at(c, r) = params[offset++];
        std::copy(params.begin() + static_cast<std::ptrdiff_t>(offset),
                  params.begin() +
                      static_cast<std::ptrdiff_t>(offset + layer.bias.size()),
                  layer.bias.begin());
        offset += layer.bias.size();
    }
    ADIV_REQUIRE(offset == params.size(), "parameter vector size mismatch");
}

}  // namespace adiv
