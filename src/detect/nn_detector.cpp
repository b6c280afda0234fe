#include "detect/nn_detector.hpp"

#include <cmath>
#include <unordered_map>

#include "nn/encoding.hpp"
#include "seq/conditional_model.hpp"
#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

NnDetector::NnDetector(std::size_t window_length, NnDetectorConfig config)
    : window_length_(window_length), config_(config) {
    require(window_length >= 2,
            "neural-net window length must be at least 2 (one context symbol "
            "plus the predicted symbol)");
    require(config_.hidden_units >= 1, "need at least one hidden unit");
    require(config_.epochs >= 1, "need at least one training epoch");
    require(config_.probability_floor >= 0.0 && config_.probability_floor < 1.0,
            "probability floor must be in [0,1)");
    quantizer_.probability_floor = config_.probability_floor;
}

void NnDetector::train(const EventStream& training) {
    alphabet_size_ = training.alphabet_size();
    codec_ = NgramCodec(alphabet_size_);

    const std::size_t context_len = window_length_ - 1;
    const ConditionalModel model(training, context_len);

    std::vector<MlpSample> batch;
    const auto distributions = model.distributions();
    batch.reserve(distributions.size());
    for (const ContextDistribution& dist : distributions) {
        MlpSample sample;
        sample.input = one_hot_context(dist.context, alphabet_size_);
        sample.target.resize(alphabet_size_);
        for (std::size_t c = 0; c < alphabet_size_; ++c)
            sample.target[c] = static_cast<double>(dist.next_counts[c]) /
                               static_cast<double>(dist.total);
        sample.weight = std::log2(1.0 + static_cast<double>(dist.total));
        batch.push_back(std::move(sample));
    }

    MlpConfig net_config;
    net_config.layer_sizes = {one_hot_size(context_len, alphabet_size_),
                              config_.hidden_units, alphabet_size_};
    net_config.learning_rate = config_.learning_rate;
    net_config.momentum = config_.momentum;
    net_config.init_scale = config_.init_scale;
    net_config.seed = config_.seed;
    net_.emplace(net_config);
    training_loss_ = net_->train(batch, config_.epochs);
}

std::vector<double> NnDetector::predict(SymbolView context) const {
    ADIV_REQUIRE(net_.has_value(), "neural-net detector must be trained before use");
    ADIV_REQUIRE(context.size() == window_length_ - 1, "context length mismatch");
    return net_->forward(one_hot_context(context, alphabet_size_));
}

std::vector<double> NnDetector::score(const EventStream& test) const {
    ADIV_REQUIRE(net_.has_value(), "neural-net detector must be trained before scoring");
    ADIV_REQUIRE(test.alphabet_size() == alphabet_size_,
                 "test alphabet does not match training alphabet");
    const std::size_t context_len = window_length_ - 1;
    const std::size_t windows = test.window_count(window_length_);
    std::vector<double> responses;
    if (windows == 0) return responses;
    responses.reserve(windows);

    // Test streams repeat contexts heavily, so this call runs one forward
    // pass per distinct context: row_of maps a context key to the offset of
    // its responses (one per next symbol) in `rows`. The cache lives only
    // for this call, so concurrent calls share nothing but the read-only net.
    std::unordered_map<NgramKey, std::size_t, NgramKeyHash> row_of;
    std::vector<double> rows;
    Mlp::Workspace ws(*net_);
    std::vector<double> input(one_hot_size(context_len, alphabet_size_));
    const SymbolView all = test.view();
    const NgramKey mask = codec_.mask_for(context_len);
    NgramKey key = codec_.encode(all.subspan(0, context_len));
    for (std::size_t p = 0; p < windows; ++p) {
        if (p > 0) key = codec_.slide(key, all[p + context_len - 1], mask);
        const auto [it, fresh] = row_of.try_emplace(key, rows.size());
        if (fresh) {
            one_hot_context_into(all.subspan(p, context_len), alphabet_size_, input);
            for (const double prob : net_->forward(input, ws))
                rows.push_back(quantizer_.response_for_probability(prob));
        }
        responses.push_back(rows[it->second + all[p + context_len]]);
    }
    return responses;
}

double NnDetector::training_loss() const {
    require(net_.has_value(), "neural-net detector is not trained");
    return training_loss_;
}


void NnDetector::save_model(std::ostream& out) const {
    require(net_.has_value(), "cannot save an untrained neural-net model");
    out << window_length_ << ' ' << alphabet_size_ << ' ' << config_.hidden_units
        << ' ' << config_.epochs << ' ';
    write_double(out, config_.learning_rate);
    out << ' ';
    write_double(out, config_.momentum);
    out << ' ';
    write_double(out, config_.init_scale);
    out << ' ';
    write_double(out, config_.probability_floor);
    out << ' ' << config_.seed << ' ';
    write_double(out, training_loss_);
    const std::vector<double> params = net_->parameters();
    out << ' ' << params.size() << '\n';
    for (double p : params) {
        write_double(out, p);
        out << '\n';
    }
}

NnDetector NnDetector::load_model(std::istream& in) {
    const std::size_t window = read_number<std::size_t>(in, "window length");
    const std::size_t alphabet = read_number<std::size_t>(in, "alphabet size");
    NnDetectorConfig config;
    config.hidden_units = read_number<std::size_t>(in, "hidden units");
    config.epochs = read_number<std::size_t>(in, "epochs");
    config.learning_rate = read_number<double>(in, "learning rate");
    config.momentum = read_number<double>(in, "momentum");
    config.init_scale = read_number<double>(in, "init scale");
    config.probability_floor = read_number<double>(in, "probability floor");
    config.seed = read_number<std::uint64_t>(in, "seed");
    NnDetector detector(window, config);
    detector.alphabet_size_ = alphabet;
    detector.codec_ = NgramCodec(alphabet);
    require_data(window - 1 <= detector.codec_.max_length(),
                 "window length exceeds the context-key capacity of the alphabet");
    detector.training_loss_ = read_number<double>(in, "training loss");

    // Read the parameters before sizing anything from the header: the vector
    // grows only as numbers arrive, so a huge count or layer size in a short
    // file ends in a DataError, not an allocation of that size.
    const std::size_t param_count = read_number<std::size_t>(in, "parameter count");
    std::vector<double> params;
    for (std::size_t i = 0; i < param_count; ++i)
        params.push_back(read_number<double>(in, "parameter"));

    // Weights and biases of the input->hidden and hidden->output layers.
    const std::size_t inputs = checked_product(window - 1, alphabet);
    const std::size_t hidden = config.hidden_units;
    const std::size_t expected =
        checked_sum(checked_sum(checked_product(inputs, hidden), hidden),
                    checked_sum(checked_product(hidden, alphabet), alphabet));
    require_data(expected == param_count,
                 "parameter count " + std::to_string(param_count) +
                     " does not match the network shape (" + std::to_string(expected) +
                     ")");

    MlpConfig net_config;
    net_config.layer_sizes = {inputs, hidden, alphabet};
    net_config.learning_rate = config.learning_rate;
    net_config.momentum = config.momentum;
    net_config.init_scale = config.init_scale;
    net_config.seed = config.seed;
    detector.net_.emplace(net_config);
    detector.net_->set_parameters(params);
    return detector;
}

std::size_t NnDetector::alphabet_size() const {
    require(net_.has_value(), "neural-net detector is not trained");
    return alphabet_size_;
}

}  // namespace adiv
