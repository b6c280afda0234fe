#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace adiv {
namespace {

MlpConfig xor_config() {
    MlpConfig cfg;
    cfg.layer_sizes = {2, 8, 2};
    cfg.learning_rate = 2.0;
    cfg.momentum = 0.9;
    cfg.seed = 3;
    return cfg;
}

std::vector<MlpSample> xor_batch() {
    auto sample = [](double a, double b, std::size_t cls) {
        MlpSample s;
        s.input = {a, b};
        s.target = {0.0, 0.0};
        s.target[cls] = 1.0;
        s.weight = 1.0;
        return s;
    };
    return {sample(0, 0, 0), sample(0, 1, 1), sample(1, 0, 1), sample(1, 1, 0)};
}

TEST(Softmax, NormalizesAndOrders) {
    std::vector<double> v{1.0, 2.0, 3.0};
    softmax_inplace(v);
    EXPECT_NEAR(v[0] + v[1] + v[2], 1.0, 1e-12);
    EXPECT_LT(v[0], v[1]);
    EXPECT_LT(v[1], v[2]);
}

TEST(Softmax, StableForLargeLogits) {
    std::vector<double> v{1000.0, 1000.0};
    softmax_inplace(v);
    EXPECT_NEAR(v[0], 0.5, 1e-12);
}

TEST(Mlp, ForwardIsDistribution) {
    const Mlp net(xor_config());
    const auto y = net.forward(std::vector<double>{0.5, 0.5});
    ASSERT_EQ(y.size(), 2u);
    EXPECT_NEAR(y[0] + y[1], 1.0, 1e-12);
    EXPECT_GT(y[0], 0.0);
    EXPECT_GT(y[1], 0.0);
}

TEST(Mlp, RequiresAtLeastTwoLayers) {
    MlpConfig cfg;
    cfg.layer_sizes = {4};
    EXPECT_THROW(Mlp{cfg}, InvalidArgument);
}

TEST(Mlp, InvalidHyperparametersThrow) {
    MlpConfig cfg = xor_config();
    cfg.learning_rate = 0.0;
    EXPECT_THROW(Mlp{cfg}, InvalidArgument);
    cfg = xor_config();
    cfg.momentum = 1.0;
    EXPECT_THROW(Mlp{cfg}, InvalidArgument);
    cfg = xor_config();
    cfg.init_scale = -0.1;
    EXPECT_THROW(Mlp{cfg}, InvalidArgument);
}

TEST(Mlp, InitialWeightsAreSeededDrawsInParameterOrder) {
    // The weights are stored input-major, but the seed's draws fill them in
    // parameters() order (per layer, unit by unit), then the biases start at 0.
    MlpConfig cfg;
    cfg.layer_sizes = {3, 4, 2};
    cfg.init_scale = 0.3;
    cfg.seed = 17;
    const std::vector<double> params = Mlp(cfg).parameters();
    ASSERT_EQ(params.size(), 3u * 4u + 4u + 4u * 2u + 2u);
    Rng rng(cfg.seed);
    std::size_t i = 0;
    for (const auto& [in, out] : {std::pair<std::size_t, std::size_t>{3, 4}, {4, 2}}) {
        for (std::size_t w = 0; w < in * out; ++w, ++i) {
            EXPECT_EQ(params[i], rng.uniform(-cfg.init_scale, cfg.init_scale)) << i;
            EXPECT_LE(std::abs(params[i]), cfg.init_scale);
        }
        for (std::size_t b = 0; b < out; ++b, ++i) EXPECT_EQ(params[i], 0.0) << i;
    }
}

TEST(Mlp, WrongInputSizeThrows) {
    const Mlp net(xor_config());
    EXPECT_THROW((void)net.forward(std::vector<double>{1.0}), InvalidArgument);
}

TEST(Mlp, TrainingReducesLoss) {
    Mlp net(xor_config());
    const auto batch = xor_batch();
    const double before = net.loss(batch);
    net.train(batch, 200);
    EXPECT_LT(net.loss(batch), before);
}

TEST(Mlp, LearnsXor) {
    Mlp net(xor_config());
    const auto batch = xor_batch();
    net.train(batch, 2000);
    for (const auto& s : batch) {
        const auto y = net.forward(s.input);
        const std::size_t predicted = y[0] > y[1] ? 0 : 1;
        const std::size_t expected = s.target[0] > s.target[1] ? 0 : 1;
        EXPECT_EQ(predicted, expected);
    }
}

TEST(Mlp, FitsSoftTargets) {
    // A single input with target (0.7, 0.3): trained long enough, the output
    // converges to the target distribution (the cross-entropy optimum).
    MlpConfig cfg;
    cfg.layer_sizes = {1, 4, 2};
    cfg.learning_rate = 1.0;
    cfg.seed = 11;
    Mlp net(cfg);
    std::vector<MlpSample> batch(1);
    batch[0].input = {1.0};
    batch[0].target = {0.7, 0.3};
    batch[0].weight = 1.0;
    net.train(batch, 3000);
    const auto y = net.forward(batch[0].input);
    EXPECT_NEAR(y[0], 0.7, 0.02);
    EXPECT_NEAR(y[1], 0.3, 0.02);
}

TEST(Mlp, WeightsScaleSampleInfluence) {
    // Two conflicting samples with the same input; the heavier one wins.
    MlpConfig cfg;
    cfg.layer_sizes = {1, 4, 2};
    cfg.learning_rate = 1.0;
    cfg.seed = 13;
    Mlp net(cfg);
    std::vector<MlpSample> batch(2);
    batch[0].input = {1.0};
    batch[0].target = {1.0, 0.0};
    batch[0].weight = 9.0;
    batch[1].input = {1.0};
    batch[1].target = {0.0, 1.0};
    batch[1].weight = 1.0;
    net.train(batch, 3000);
    const auto y = net.forward(std::vector<double>{1.0});
    EXPECT_NEAR(y[0], 0.9, 0.03);  // optimum = weighted mean of targets
}

TEST(Mlp, DeterministicForSeed) {
    Mlp a(xor_config()), b(xor_config());
    const auto batch = xor_batch();
    a.train(batch, 50);
    b.train(batch, 50);
    EXPECT_EQ(a.parameters(), b.parameters());
}

TEST(Mlp, ParameterRoundTrip) {
    Mlp net(xor_config());
    const auto params = net.parameters();
    Mlp other(xor_config());
    other.train(xor_batch(), 10);
    other.set_parameters(params);
    EXPECT_EQ(other.parameters(), params);
    // Identical parameters produce identical outputs.
    const std::vector<double> x{0.3, 0.6};
    EXPECT_EQ(net.forward(x), other.forward(x));
}

TEST(Mlp, SetParametersWrongSizeThrows) {
    Mlp net(xor_config());
    std::vector<double> too_short(3, 0.0);
    EXPECT_THROW(net.set_parameters(too_short), InvalidArgument);
}

TEST(Mlp, GradientMatchesFiniteDifference) {
    // One plain SGD step (momentum 0, so step = -lr * grad) must agree with
    // the numerical gradient of the batch loss.
    MlpConfig cfg;
    cfg.layer_sizes = {2, 3, 2};
    cfg.learning_rate = 1.0;
    cfg.momentum = 0.0;
    cfg.seed = 17;

    const auto batch = xor_batch();
    Mlp net(cfg);
    const std::vector<double> params = net.parameters();

    // Analytic gradient from the parameter delta of one epoch.
    Mlp stepper(cfg);
    stepper.set_parameters(params);
    stepper.train_epoch(batch);
    const std::vector<double> stepped = stepper.parameters();

    const double eps = 1e-6;
    for (std::size_t i = 0; i < params.size(); i += 3) {  // sample every 3rd
        std::vector<double> plus = params, minus = params;
        plus[i] += eps;
        minus[i] -= eps;
        Mlp probe(cfg);
        probe.set_parameters(plus);
        const double lp = probe.loss(batch);
        probe.set_parameters(minus);
        const double lm = probe.loss(batch);
        const double numeric_grad = (lp - lm) / (2 * eps);
        const double analytic_grad = params[i] - stepped[i];  // lr = 1
        EXPECT_NEAR(analytic_grad, numeric_grad, 1e-5)
            << "gradient mismatch at parameter " << i;
    }
}

TEST(Mlp, EmptyBatchThrows) {
    Mlp net(xor_config());
    const std::vector<MlpSample> empty;
    EXPECT_THROW((void)net.train_epoch(empty), InvalidArgument);
    EXPECT_THROW((void)net.loss(empty), InvalidArgument);
}

TEST(Mlp, NonPositiveSampleWeightThrows) {
    Mlp net(xor_config());
    auto batch = xor_batch();
    batch[0].weight = 0.0;
    EXPECT_THROW((void)net.train_epoch(batch), InvalidArgument);
}

TEST(Mlp, DeepNetworkTrains) {
    MlpConfig cfg;
    cfg.layer_sizes = {2, 6, 6, 2};
    cfg.learning_rate = 1.0;
    cfg.seed = 19;
    Mlp net(cfg);
    const auto batch = xor_batch();
    const double before = net.loss(batch);
    net.train(batch, 500);
    EXPECT_LT(net.loss(batch), before);
}

}  // namespace
}  // namespace adiv
