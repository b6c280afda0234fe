// perfbench: the adiv benchmark harness.
//
//   perfbench --workload <paper_maps|serve_stide_bulk|serve_ensemble_chatty>
//             [--seed N] [--seconds S] [--trace 0|1] [--spans-dir DIR]
//
// Prints a human-readable table of every metric (name, value, unit, sample
// count) and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 0 when every
// correctness check passed, 1 when one failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* message) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper_maps|serve_stide_bulk|serve_ensemble_chatty> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--spans-dir DIR]\n",
                 message);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (arg == "--spans-dir") {
                options.spans_dir = value;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

    perfbench::Result result;
    try {
        if (options.workload == "paper_maps") {
            perfbench::run_paper_maps(options, result);
        } else if (options.workload == "serve_stide_bulk") {
            perfbench::run_serve_stide_bulk(options, result);
        } else if (options.workload == "serve_ensemble_chatty") {
            perfbench::run_serve_ensemble_chatty(options, result);
        } else {
            return usage("unknown or missing --workload");
        }
    } catch (const std::exception& e) {
        result.fail(std::string("workload aborted: ") + e.what(), 1);
    }
    std::fflush(stderr);
    result.print_table(stdout);
    result.print_json(stdout);
    return result.correct() ? EXIT_SUCCESS : EXIT_FAILURE;
}
