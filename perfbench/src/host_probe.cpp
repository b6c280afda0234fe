#include "host_probe.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

constexpr std::uint64_t kComputeIterations = 20'000'000;
constexpr std::uint64_t kMallocIterations = 1'000'000;
constexpr int kRounds = 3;

inline void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

void compute_loop() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < kComputeIterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    escape(&x);
}

void malloc_loop() {
    std::array<void*, 8> ring{};
    for (std::uint64_t i = 0; i < kMallocIterations; ++i) {
        void*& slot = ring[i % ring.size()];
        std::free(slot);
        slot = std::malloc(64);
        static_cast<unsigned char*>(slot)[0] = static_cast<unsigned char>(i);
        escape(slot);
    }
    for (void* p : ring) std::free(p);
}

/// Wall seconds for `threads` threads each running `loop` once.
double run_threads(void (*loop)(), int threads) {
    std::latch start(threads + 1);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&] {
            start.arrive_and_wait();
            loop();
        });
    start.arrive_and_wait();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& w : workers) w.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Median over rounds of t(1) / t(threads).
double efficiency(void (*loop)(), int threads) {
    std::array<double, kRounds> ratios{};
    for (double& r : ratios) r = run_threads(loop, 1) / run_threads(loop, threads);
    std::sort(ratios.begin(), ratios.end());
    return ratios[kRounds / 2];
}

}  // namespace

void report_host_probe(Result& result, bool layer) {
    result.add("host.compute_eff_2", efficiency(compute_loop, 2), "ratio", kRounds);
    result.add("host.compute_eff_4", efficiency(compute_loop, 4), "ratio", kRounds,
               layer ? "host.compute_eff_4" : "");
    result.add("host.malloc_eff_2", efficiency(malloc_loop, 2), "ratio", kRounds);
    result.add("host.malloc_eff_4", efficiency(malloc_loop, 4), "ratio", kRounds,
               layer ? "host.malloc_eff_4" : "");
}

}  // namespace perfbench
