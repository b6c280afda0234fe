// Allocation counting for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family; every
// allocation bumps one relaxed atomic, so a `*.allocs_per_event` figure is an
// exact count of the operator-new calls made between two reads, across all
// threads. Callers read it around single-threaded replays, where no other
// thread allocates, to attribute the count to one layer.
#pragma once
#include <cstdint>

namespace perfbench {

/// operator-new calls made by the process so far.
[[nodiscard]] std::uint64_t allocation_count() noexcept;

}  // namespace perfbench
