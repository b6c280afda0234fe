// diagnose: Figure 1 of the paper as a command-line tool.
//
// Given an attack manifestation (a symbol sequence over the study corpus's
// alphabet) and a detector, walk the paper's decision tree: is it anomalous?
// is that kind of anomaly within the detector's coverage? is the deployed
// window tuned to catch it? The tool answers with evidence, not intuition —
// which is the paper's whole argument for measuring coverage.
//
// Usage:
//   ./examples/diagnose --detector stide --window 4 --manifestation "4 0 1 2 0"
//   ./examples/diagnose --detector markov --manifestation "0 0"
//   ./examples/diagnose                       # demo across several cases
#include <cstdio>
#include <sstream>

#include "adiv.hpp"

using namespace adiv;

namespace {

Sequence parse_manifestation(const std::string& text) {
    Sequence out;
    std::istringstream in(text);
    std::uint32_t v = 0;
    while (in >> v) out.push_back(v);
    return out;
}

void run_one(const TrainingCorpus& corpus, DetectorKind kind,
             const Sequence& manifestation, std::size_t deployed) {
    CapabilityQuery query;
    query.deployed_window = deployed;
    query.background_length = 2048;
    const CapabilityDiagnosis d = diagnose_capability(
        corpus, factory_for(kind), manifestation, query);
    std::printf("detector=%s deployed DW=%zu manifestation=[",
                to_string(kind).c_str(), deployed);
    for (std::size_t i = 0; i < manifestation.size(); ++i)
        std::printf("%s%u", i ? " " : "", manifestation[i]);
    std::printf("]\n  class   : %s\n  verdict : %s\n  %s\n\n",
                to_string(d.manifestation).c_str(), to_string(d.verdict).c_str(),
                d.explanation.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("diagnose", "Figure 1: can this detector catch this anomaly?");
    cli.add_option("detector", "stide",
                   "stide | t-stide | markov | lane-brodley | neural-net | hmm | "
                   "rule | lookahead-pairs");
    cli.add_option("window", "6", "deployed detector window");
    cli.add_option("manifestation", "",
                   "space-separated symbol ids; empty runs the demo cases");
    cli.add_option("training-length", "200000", "corpus training length");
    if (!cli.parse(argc, argv)) return 0;

    CorpusSpec spec;
    spec.training_length = cli.get_number<std::size_t>("training-length");
    const TrainingCorpus corpus = TrainingCorpus::generate(spec);

    const std::string text = cli.get("manifestation");
    if (!text.empty()) {
        run_one(corpus, detector_kind_from_string(cli.get("detector")),
                parse_manifestation(text),
                cli.get_number<std::size_t>("window"));
        return 0;
    }

    // Demo: one manifestation of each class, two detectors, two tunings.
    const SubsequenceOracle oracle(corpus.training());
    const Sequence mfs = MfsBuilder(oracle).build(5);
    const Sequence rare = RareAnomalyBuilder(oracle).build(4);
    const Sequence common{0, 1, 2, 3};

    std::printf("== A common sequence is not anomalous at all ==\n");
    run_one(corpus, DetectorKind::Stide, common, 4);
    std::printf("== Stide vs a size-5 MFS: tuning decides ==\n");
    run_one(corpus, DetectorKind::Stide, mfs, 3);
    run_one(corpus, DetectorKind::Stide, mfs, 6);
    std::printf("== The Markov detector needs no tuning for the same MFS ==\n");
    run_one(corpus, DetectorKind::Markov, mfs, 3);
    std::printf("== A rare sequence is outside Stide's coverage entirely ==\n");
    run_one(corpus, DetectorKind::Stide, rare, 6);
    run_one(corpus, DetectorKind::Markov, rare, 6);
    return 0;
}
