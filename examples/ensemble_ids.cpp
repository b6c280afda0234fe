// ensemble_ids: a host-based intrusion detector for system-call traces,
// built the way Section 7 recommends — the Markov detector as the primary
// (it sees foreign AND rare manifestations at any window size) with Stide as
// a false-alarm suppressor (its alarms are a subset of the Markov alarms,
// so anything Markov raises alone may be dismissed).
//
// The scenario: a server process is monitored; its normal behaviour comes
// from a routine-structured trace model (accept/recv/send loops, logging,
// housekeeping). An attack manifests as a minimal foreign sequence of
// UNKNOWN size in the syscall stream — precisely the case where Stide alone
// is unreliable (the window might be too small) but valuable as a suppressor.
//
// Usage: ./examples/ensemble_ids [--window 6] [--trace-length 200000]
#include <cstdio>

#include "adiv.hpp"

using namespace adiv;

int main(int argc, char** argv) {
    CliParser cli("ensemble_ids",
                  "Markov primary + Stide suppressor on a syscall trace");
    cli.add_option("window", "6", "detector window (DW)");
    cli.add_option("trace-length", "200000", "training trace length");
    cli.add_option("test-length", "20000", "monitored (test) trace length");
    if (!cli.parse(argc, argv)) return 0;
    const auto dw = cli.get_number<std::size_t>("window");

    // Normal behaviour: the server's syscall trace.
    const TraceModel model = make_syscall_model();
    const EventStream training = model.generate(
        cli.get_number<std::size_t>("trace-length"), /*seed=*/11);
    std::printf("training trace: %zu syscalls over %zu distinct calls\n",
                training.size(), model.alphabet().size());

    // The attack manifestation: a minimal foreign sequence in THIS trace's
    // terms, synthesized the same way the study synthesizes anomalies.
    const SubsequenceOracle oracle(training);
    MfsConfig mfs_config;
    mfs_config.require_rare_composition = false;  // natural-like data is noisier
    const MfsBuilder builder(oracle, mfs_config);
    const Sequence attack = builder.build(5);
    std::printf("attack manifestation (foreign, minimal, size %zu): %s\n",
                attack.size(), model.alphabet().format(attack).c_str());

    // The monitored stream: fresh normal activity with the attack spliced in.
    EventStream monitored = model.generate(
        cli.get_number<std::size_t>("test-length"), /*seed=*/77);
    const std::size_t attack_pos = monitored.size() / 2;
    {
        Sequence events = monitored.events();
        events.insert(events.begin() + static_cast<std::ptrdiff_t>(attack_pos),
                      attack.begin(), attack.end());
        monitored = EventStream(model.alphabet().size(), std::move(events));
    }

    // Train the ensemble. The Markov floor is raised above the default so
    // that rare-but-normal routine boundaries (housekeeping tasks the server
    // runs a handful of times per day) register as maximally anomalous — the
    // false-alarm-prone primary the paper describes.
    MarkovConfig markov_config;
    markov_config.probability_floor = 0.02;
    MarkovDetector markov(dw, markov_config);
    StideDetector stide(dw);
    markov.train(training);
    stide.train(training);

    const auto rm = markov.score(monitored);
    const auto rs = stide.score(monitored);
    const auto suppressed = combine_alarms(rm, rs, CombineMode::And,
                                           kMaximalResponse);

    const IncidentSpan span =
        incident_span(attack_pos, attack.size(), dw, monitored.size());
    std::size_t markov_alarms = 0, ensemble_alarms = 0;
    std::size_t markov_hits = 0, ensemble_hits = 0;
    for (std::size_t i = 0; i < rm.size(); ++i) {
        const bool m = rm[i] >= kMaximalResponse;
        const bool both = suppressed[i] >= 1.0;
        if (span.contains(i)) {
            markov_hits += m ? 1 : 0;
            ensemble_hits += both ? 1 : 0;
        } else {
            markov_alarms += m ? 1 : 0;
            ensemble_alarms += both ? 1 : 0;
        }
    }

    std::printf("\nmonitored stream: %zu syscalls, attack at %zu (span windows "
                "%zu..%zu)\n",
                monitored.size(), attack_pos, span.first, span.last);
    std::printf("%-22s %-18s %s\n", "", "alarms off-attack", "alarms on-attack");
    std::printf("%-22s %-18zu %zu\n", "markov alone", markov_alarms, markov_hits);
    std::printf("%-22s %-18zu %zu\n", "markov AND stide", ensemble_alarms,
                ensemble_hits);
    if (markov_hits > 0 && ensemble_hits > 0 && ensemble_alarms < markov_alarms) {
        std::printf("\nThe suppressor dismissed %zu off-attack alarms and kept "
                    "the attack visible.\n",
                    markov_alarms - ensemble_alarms);
    } else if (markov_hits > 0 && ensemble_hits > 0) {
        std::printf("\nStide corroborated every off-attack alarm: those windows "
                    "are genuinely foreign\nto the training trace, so the paper's "
                    "rule treats them as possible hits too.\n");
    } else if (ensemble_hits == 0 && markov_hits > 0) {
        std::printf("\nStide (DW=%zu) could not corroborate this manifestation "
                    "— enlarge the window\nor trust the primary here: exactly "
                    "the trade-off the paper maps out.\n",
                    dw);
    }
    return 0;
}
