// One-hot encoding of symbol contexts for the neural-network detector.
#pragma once

#include <span>
#include <vector>

#include "seq/types.hpp"

namespace adiv {

/// Encodes a context of K symbols over an alphabet of size N as a K*N vector
/// of 0/1 values: position k*N + context[k] is 1. Requires every symbol to be
/// inside the alphabet.
std::vector<double> one_hot_context(SymbolView context, std::size_t alphabet_size);

/// The same encoding written over `out`, which must hold exactly
/// context.size() * alphabet_size entries; allocates nothing.
void one_hot_context_into(SymbolView context, std::size_t alphabet_size,
                          std::span<double> out);

/// Input-vector size for contexts of the given length.
inline std::size_t one_hot_size(std::size_t context_length,
                                std::size_t alphabet_size) noexcept {
    return context_length * alphabet_size;
}

}  // namespace adiv
