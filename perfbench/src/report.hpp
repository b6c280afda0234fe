// Benchmark options, the result every workload fills in, and the small
// statistics helpers they share.
//
// A result holds named metrics with unit and sample count. The human table
// prints all of them; the final JSON line carries the ones given a JSON
// name: the end-to-end set without --trace, the per-layer set with it.
#pragma once
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// The paper's corpus seed (Tan & Maxion, DSN 2005), the default workload seed.
inline constexpr std::uint64_t kPaperSeed = 20050628;

struct Options {
    std::string workload;
    std::uint64_t seed = kPaperSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string spans_dir = ".bench_build/spans";
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string json_name;  ///< empty: table only
};

class Result {
public:
    /// Adds a metric; the final JSON line carries it under `json_name` when
    /// that is not empty.
    void add(std::string name, double value, std::string unit, std::size_t samples,
             std::string json_name = {});
    /// Adds a per-layer metric (JSON name = table name).
    void layer(const std::string& name, double value, std::string unit,
               std::size_t samples);

    /// Records a failed check; `failed_ops` of the attempted operations fail.
    void fail(const std::string& message, std::uint64_t failed_ops);

    void attempt(std::uint64_t ops) noexcept { attempted_ += ops; }
    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] bool correct() const noexcept {
        return failed_ == 0 && messages_.empty();
    }

    void print_table(std::FILE* out) const;
    /// The single-line JSON result.
    void print_json(std::FILE* out) const;

private:
    std::vector<Metric> metrics_;
    std::vector<std::string> messages_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Process user + system CPU seconds so far.
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of the process, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
