#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

void Result::add(std::string name, double value, std::string unit, std::size_t samples,
                 std::string json_name) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), samples, std::move(json_name)});
}

void Result::layer(const std::string& name, double value, std::string unit,
                   std::size_t samples) {
    metrics_.push_back({name, value, std::move(unit), samples, name});
}

void Result::fail(const std::string& message, std::uint64_t failed_ops) {
    failed_ += failed_ops;
    messages_.push_back(message);
    // Keep the log readable when a systematic failure repeats every pass.
    if (messages_.size() <= 20) std::fprintf(stderr, "perfbench: FAIL %s\n", message.c_str());
}

void Result::print_table(std::FILE* out) const {
    std::fprintf(out, "%-30s %16s %-8s %10s  %s\n", "metric", "value", "unit",
                 "samples", "json");
    for (const Metric& m : metrics_)
        std::fprintf(out, "%-30s %16.6g %-8s %10zu  %s\n", m.name.c_str(), m.value,
                     m.unit.c_str(), m.samples, m.json_name.c_str());
    const double rate = attempted_ == 0 ? 0.0
                                        : static_cast<double>(failed_) /
                                              static_cast<double>(attempted_);
    std::fprintf(out, "%-30s %16.6g %-8s %10llu\n", "error_rate", rate, "ratio",
                 static_cast<unsigned long long>(attempted_));
}

void Result::print_json(std::FILE* out) const {
    std::fprintf(out, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                      "\"metrics\": {",
                 correct() ? "true" : "false",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    bool first = true;
    for (const Metric& m : metrics_) {
        if (m.json_name.empty()) continue;
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     first ? "" : ", ", m.json_name.c_str(), value, m.unit.c_str());
        first = false;
    }
    std::fprintf(out, "}}\n");
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lower + upper) / 2.0;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
    return values[index];
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
