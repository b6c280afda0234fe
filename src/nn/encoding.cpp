#include "nn/encoding.hpp"

#include "util/contracts.hpp"

namespace adiv {

std::vector<double> one_hot_context(SymbolView context, std::size_t alphabet_size) {
    std::vector<double> out(context.size() * alphabet_size, 0.0);
    for (std::size_t k = 0; k < context.size(); ++k) {
        ADIV_REQUIRE(context[k] < alphabet_size, "context symbol outside alphabet");
        out[k * alphabet_size + context[k]] = 1.0;
    }
    return out;
}

}  // namespace adiv
