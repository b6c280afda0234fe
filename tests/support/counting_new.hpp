// Allocation counting for the allocation-budget gates.
//
// counting_new.cpp replaces the global operator new/delete family with
// versions that count every operator-new call, so it links only into the
// adiv_alloc_budget_tests binary: the counter never reaches adiv_tests, and
// sanitizer builds, which interpose the allocator themselves, leave the
// binary out.
#pragma once

#include <cstdint>

namespace adiv::test {

/// operator-new calls made so far, process-wide.
std::uint64_t allocation_count() noexcept;

/// operator-new calls made while running fn.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
    const std::uint64_t before = allocation_count();
    fn();
    return allocation_count() - before;
}

}  // namespace adiv::test
