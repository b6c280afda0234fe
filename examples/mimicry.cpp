// mimicry: what NO anomaly detector in this library can see.
//
// Wagner & Soto (reference [19] of the paper) showed that attacks can be
// re-encoded to manifest as normal behaviour; the paper's Figure 1 places
// such attacks outside the scope of any anomaly detector ("Is the
// manifestation anomalous? No -> attack not detectable"). This example makes
// that boundary concrete:
//
//   * a CRUDE attack inserts a foreign sequence -> every probabilistic
//     detector (and Stide, at a wide enough window) fires;
//   * the MIMICRY version performs its effect using only common training
//     sequences (a replayed normal routine) -> all seven detectors stay
//     silent, by construction.
//
// Usage: ./examples/mimicry [--window 6]
#include <algorithm>
#include <cstdio>

#include "adiv.hpp"

using namespace adiv;

int main(int argc, char** argv) {
    CliParser cli("mimicry", "a mimicry attack evades every detector");
    cli.add_option("window", "6", "detector window (DW)");
    if (!cli.parse(argc, argv)) return 0;
    const auto dw = cli.get_number<std::size_t>("window");

    const TraceModel model = make_syscall_model();
    const Alphabet& names = model.alphabet();
    const EventStream training = model.generate(200'000, 21);
    const SubsequenceOracle oracle(training);

    // The crude attack: a foreign syscall sequence (synthesized like the
    // study's anomalies).
    MfsConfig mfs_config;
    mfs_config.require_rare_composition = false;
    const Sequence crude = MfsBuilder(oracle, mfs_config).build(dw);

    // The mimicry attack: the same "slot" in the stream is filled with a
    // verbatim replay of the most common normal routine — the attacker
    // achieves the effect through behaviour the monitor has always seen.
    const Sequence& mimic = model.routine("serve_request");

    // Splice point: a mimicry attacker weaves into the victim's behaviour at
    // a routine boundary, not mid-routine (a cut inside a routine would
    // itself be an anomalous seam). Find where a serve_request routine begins
    // past the middle of the session and insert there.
    const EventStream base_session = model.generate(8'192, 77);
    const Sequence& marker = model.routine("serve_request");
    std::size_t splice = 4'096;
    {
        const auto& events = base_session.events();
        const auto it = std::search(events.begin() + 4'096, events.end(),
                                    marker.begin(), marker.end());
        if (it != events.end())
            splice = static_cast<std::size_t>(it - events.begin());
    }
    auto build_session = [&](const Sequence& payload) {
        Sequence events = base_session.events();
        events.insert(events.begin() + static_cast<std::ptrdiff_t>(splice),
                      payload.begin(), payload.end());
        return EventStream(names.size(), std::move(events));
    };
    const EventStream crude_session = build_session(crude);
    const EventStream mimic_session = build_session(mimic);

    std::printf("crude attack payload  : %s\n", names.format(crude).c_str());
    std::printf("mimicry attack payload: %s  (a verbatim normal routine)\n\n",
                names.format(mimic).c_str());

    DetectorSettings settings;
    settings.nn.epochs = 200;
    settings.hmm.iterations = 15;
    std::printf("%-14s %-28s %s\n", "detector",
                "alarms in crude-attack span", "alarms in mimicry span");
    for (DetectorKind kind : all_detectors()) {
        auto detector = make_detector(kind, dw, settings);
        detector->train(training);
        auto alarms_in_span = [&](const EventStream& session,
                                  std::size_t payload_size) {
            const IncidentSpan span =
                incident_span(splice, payload_size, dw, session.size());
            const auto responses = detector->score(session);
            std::size_t alarms = 0;
            for (std::size_t p = span.first; p <= span.last; ++p)
                alarms += responses[p] >= kMaximalResponse ? 1 : 0;
            return alarms;
        };
        std::printf("%-14s %-28zu %zu\n", detector->name().c_str(),
                    alarms_in_span(crude_session, crude.size()),
                    alarms_in_span(mimic_session, mimic.size()));
    }
    std::printf("\nEvery detector that can see the crude attack loses the "
                "mimicry version: when the\nmanifestation is normal behaviour, "
                "detection is out of scope for anomaly detection\n(Figure 1 of "
                "the paper) — diversity among anomaly detectors cannot buy it "
                "back.\n");
    return 0;
}
