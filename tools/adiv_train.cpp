// adiv_train: fit a detector on a trace file and persist the model.
//
//   adiv_train --detector markov --window 6 --input server.trace --out m.adiv
//
// The input file is either an `adiv-trace` (named symbols) or `adiv-stream`
// (raw ids) file; see io/stream_io.hpp. Use --demo-trace to write a sample
// trace to experiment with. Without --input, training falls back to a
// freshly generated paper corpus (--alphabet symbols, --training-length
// events) — the same cycle-plus-deviations process adiv_loadgen replays, so
// corpus-trained models see loadgen traffic as (mostly) normal.
//
// Observability: --trace PATH streams JSON-lines spans (manifest first line,
// then the detect.train span), --metrics PATH dumps the final metrics
// (human table to stdout, machine JSON to PATH; '-' = stdout).
#include <cstdio>
#include <fstream>

#include "adiv.hpp"

using namespace adiv;

int main(int argc, char** argv) {
    CliParser cli("adiv_train", "train a detector on a trace and save the model");
    cli.add_option("detector", "markov",
                   "stide | t-stide | markov | lane-brodley | neural-net | hmm "
                   "| rule | lookahead-pairs");
    cli.add_option("window", "6", "detector window (DW)");
    cli.add_option("input", "",
                   "input adiv-trace or adiv-stream file (default: generated "
                   "paper corpus)");
    cli.add_option("alphabet", "8", "generated-corpus alphabet without --input");
    cli.add_option("training-length", "200000",
                   "generated-corpus length without --input");
    cli.add_option("seed", "20050628",
                   "generated-corpus sample seed without --input (different "
                   "seeds draw coverage-diverse samples of the same process)");
    cli.add_option("out", "model.adiv", "output model path");
    cli.add_option("floor", "0.005", "probability floor (probabilistic kinds)");
    cli.add_option("demo-trace", "",
                   "write a 100k-event demo syscall trace to PATH and exit");
    add_observability_options(cli);
    try {
        if (!cli.parse(argc, argv)) return 0;

        if (const std::string demo = cli.get("demo-trace"); !demo.empty()) {
            const TraceModel model = make_syscall_model();
            save_trace_file(model.alphabet(), model.generate(100'000, 1), demo);
            std::printf("wrote demo trace to %s\n", demo.c_str());
            return 0;
        }

        // Accept either file format (peek the header tag), or generate the
        // paper corpus when no input is named.
        EventStream training;
        if (const std::string input_path = cli.get("input");
            !input_path.empty()) {
            std::ifstream probe(input_path);
            require_data(probe.good(), "cannot open '" + input_path + "'");
            std::string tag;
            probe >> tag;
            if (tag == "adiv-trace") {
                training = load_trace_file(input_path).second;
            } else {
                training = load_stream_file(input_path);
            }
        } else {
            CorpusSpec corpus;
            corpus.alphabet_size = cli.get_number<std::size_t>("alphabet");
            corpus.training_length = cli.get_number<std::size_t>("training-length");
            corpus.seed = cli.get_number<std::uint64_t>("seed");
            training = TrainingCorpus::generate(corpus).training();
        }
        std::printf("training data: %zu events, alphabet %zu\n", training.size(),
                    training.alphabet_size());

        DetectorSettings settings;
        settings.markov.probability_floor = cli.get_number<double>("floor");
        settings.nn.probability_floor = cli.get_number<double>("floor");
        settings.hmm.probability_floor = cli.get_number<double>("floor");
        settings.rule.probability_floor = cli.get_number<double>("floor");
        const std::size_t window = cli.get_number<std::size_t>("window");
        auto detector = instrument(make_detector(
            detector_kind_from_string(cli.get("detector")), window, settings));

        RunManifest manifest = make_manifest("adiv_train");
        manifest.detector = detector->name();
        manifest.alphabet_size = training.alphabet_size();
        manifest.training_length = training.size();
        manifest.min_window = manifest.max_window = window;
        ObsSession obs(cli, std::move(manifest));

        Stopwatch sw;
        detector->train(training);
        save_detector_file(*detector, cli.get("out"));
        std::printf("trained %s (DW=%zu) in %.2fs; model saved to %s\n",
                    detector->name().c_str(), detector->window_length(),
                    sw.seconds(), cli.get("out").c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adiv_train: %s\n", e.what());
        return 1;
    }
}
