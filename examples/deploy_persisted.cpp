// deploy_persisted: the production loop — train once, persist, reload in a
// monitor process, score events as they arrive, and report alarm bursts.
//
// Demonstrates the persistence (io/model_io), online scoring (core/online),
// and alarm-event reporting (core/alarms) layers working together on a
// simulated server's system-call stream.
//
// Usage: ./examples/deploy_persisted [--window 6] [--model /tmp/monitor.adiv]
#include <cstdio>

#include "adiv.hpp"

using namespace adiv;

int main(int argc, char** argv) {
    CliParser cli("deploy_persisted",
                  "train, persist, reload, and monitor a live event stream");
    cli.add_option("window", "6", "detector window (DW)");
    cli.add_option("model", "/tmp/adiv_monitor.adiv", "model file path");
    if (!cli.parse(argc, argv)) return 0;
    const auto dw = cli.get_number<std::size_t>("window");
    const std::string model_path = cli.get("model");

    const TraceModel model = make_syscall_model();
    const Alphabet& names = model.alphabet();

    // ---- Training box: fit and persist -------------------------------
    {
        const EventStream training = model.generate(200'000, 31);
        MarkovDetector detector(dw);
        detector.train(training);
        save_detector_file(detector, model_path);
        std::printf("trained markov detector (DW=%zu) on %zu events and saved "
                    "to %s\n",
                    dw, training.size(), model_path.c_str());
    }

    // ---- Monitor box: reload and score a live stream ------------------
    const auto detector = load_detector_file(model_path);
    std::printf("monitor process loaded '%s' model, window %zu, alphabet %zu\n\n",
                detector->name().c_str(), detector->window_length(),
                detector->alphabet_size());

    // The live stream: fresh normal activity with one foreign incident.
    EventStream live = model.generate(12'288, 99);
    {
        const EventStream training = model.generate(200'000, 31);
        const SubsequenceOracle oracle(training);
        MfsConfig cfg;
        cfg.require_rare_composition = false;
        const Sequence attack = MfsBuilder(oracle, cfg).build(5);
        Sequence events = live.events();
        events.insert(events.begin() + 6'000, attack.begin(), attack.end());
        live = EventStream(names.size(), std::move(events));
        std::printf("live stream: %zu events; injected incident at 6000: %s\n\n",
                    live.size(), names.format(attack).c_str());
    }

    // Event-at-a-time scoring, as a tap on the audit stream would deliver it.
    OnlineScorer scorer(*detector);
    std::vector<double> responses;
    responses.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i)
        if (const auto r = scorer.push(live[i])) responses.push_back(*r);

    const auto events = extract_alarm_events(responses);
    std::printf("%s\n", render_alarm_report(events, &live,
                                            detector->window_length(), &names)
                            .c_str());
    std::printf("(%zu alarm burst(s) over %zu scored windows)\n", events.size(),
                responses.size());
    std::remove(model_path.c_str());
    return 0;
}
