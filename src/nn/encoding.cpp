#include "nn/encoding.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace adiv {

std::vector<double> one_hot_context(SymbolView context, std::size_t alphabet_size) {
    std::vector<double> out(context.size() * alphabet_size);
    one_hot_context_into(context, alphabet_size, out);
    return out;
}

void one_hot_context_into(SymbolView context, std::size_t alphabet_size,
                          std::span<double> out) {
    ADIV_REQUIRE(out.size() == context.size() * alphabet_size,
                 "one-hot output size mismatch");
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t k = 0; k < context.size(); ++k) {
        ADIV_REQUIRE(context[k] < alphabet_size, "context symbol outside alphabet");
        out[k * alphabet_size + context[k]] = 1.0;
    }
}

}  // namespace adiv
