// Workload paper_maps: the paper's experiment end to end.
//
// Set-up generates the 1M-event corpus at the workload seed and builds the
// full AS 2..9 x DW 2..15 suite. Each timed iteration is one run_plan over
// the four paper detectors (4 x 112 cells) at jobs=4; the maps it returns
// are checked against the paper's regions after the timer stops.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "anomaly/suite.hpp"
#include "datagen/corpus.hpp"
#include "detect/registry.hpp"
#include "engine/plan.hpp"
#include "engine/scheduler.hpp"
#include "obs/profile.hpp"
#include "host_probe.hpp"
#include "spans.hpp"
#include "timed_detector.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kJobs = 4;
constexpr int kSetupRepeats = 9;
constexpr int kMinIterations = 5;

struct Experiment {
    std::unique_ptr<adiv::TrainingCorpus> corpus;
    std::unique_ptr<adiv::EvaluationSuite> suite;
};

Experiment set_up(std::uint64_t seed) {
    adiv::CorpusSpec spec;
    spec.seed = seed;
    Experiment e;
    {
        ScopedSpan span("datagen.corpus");
        e.corpus = std::make_unique<adiv::TrainingCorpus>(
            adiv::TrainingCorpus::generate(spec));
    }
    {
        ScopedSpan span("anomaly.suite");
        e.suite = std::make_unique<adiv::EvaluationSuite>(
            adiv::EvaluationSuite::build(*e.corpus));
    }
    return e;
}

adiv::ExperimentPlan make_plan(const adiv::EvaluationSuite& suite, bool timed) {
    adiv::ExperimentPlan plan(suite);
    for (const adiv::DetectorKind kind : adiv::paper_detectors()) {
        if (timed)
            plan.add_detector(adiv::to_string(kind), timed_factory(kind));
        else
            plan.add_detector(kind);
    }
    return plan;
}

/// The paper's regions (Figures 3-6): Stide is capable iff DW >= AS and
/// blind otherwise; Markov and the neural net are capable everywhere; L&B
/// is never capable and is weak iff DW >= AS.
adiv::DetectionOutcome expected_outcome(const std::string& detector,
                                        std::size_t as, std::size_t dw) {
    using adiv::DetectionOutcome;
    if (detector == "stide")
        return dw >= as ? DetectionOutcome::Capable : DetectionOutcome::Blind;
    if (detector == "lane-brodley")
        return dw >= as ? DetectionOutcome::Weak : DetectionOutcome::Blind;
    return DetectionOutcome::Capable;
}

/// Checks every cell of a plan run; failed cells count as failed operations.
void check_maps(const adiv::ExperimentPlan& plan, const adiv::PlanRun& run,
                Result& result) {
    result.attempt(plan.cell_count());
    if (run.maps.size() != plan.detectors().size()) {
        result.fail("plan returned " + std::to_string(run.maps.size()) + " maps",
                    plan.cell_count());
        return;
    }
    std::uint64_t bad = 0;
    std::string first;
    for (const adiv::PerformanceMap& map : run.maps) {
        for (const std::size_t as : plan.anomaly_sizes()) {
            for (const std::size_t dw : plan.window_lengths()) {
                const adiv::DetectionOutcome want =
                    expected_outcome(map.detector_name(), as, dw);
                if (map.has(as, dw) && map.at(as, dw).outcome == want) continue;
                if (bad++ == 0)
                    first = map.detector_name() + " AS=" + std::to_string(as) +
                            " DW=" + std::to_string(dw);
            }
        }
    }
    if (bad > 0)
        result.fail(std::to_string(bad) + " map cells off the paper's regions, first " +
                        first,
                    bad);
}

struct Iteration {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double busy_s = 0.0;  ///< engine-attributed train + score time
};

Iteration run_checked(const adiv::ExperimentPlan& plan, std::size_t jobs,
                      Result& result) {
    adiv::EngineOptions engine;
    engine.jobs = jobs;
    const double cpu0 = cpu_seconds();
    const adiv::Stopwatch clock;
    const adiv::PlanRun run = adiv::run_plan(plan, engine);
    Iteration it;
    it.wall_s = clock.seconds();
    it.cpu_s = cpu_seconds() - cpu0;
    for (const adiv::MapTiming& t : run.timings)
        it.busy_s += t.train_seconds + t.score_seconds;
    check_maps(plan, run, result);
    return it;
}

/// Runs the plan at jobs=4 until `seconds` of plan wall time have elapsed.
std::vector<Iteration> run_for(const adiv::ExperimentPlan& plan, double seconds,
                               int min_iterations, Result& result) {
    std::vector<Iteration> its;
    double elapsed = 0.0;
    while (elapsed < seconds || static_cast<int>(its.size()) < min_iterations) {
        its.push_back(run_checked(plan, kJobs, result));
        elapsed += its.back().wall_s;
    }
    return its;
}

std::vector<double> field(const std::vector<Iteration>& its, double Iteration::*member) {
    std::vector<double> out;
    out.reserve(its.size());
    for (const Iteration& it : its) out.push_back(it.*member);
    return out;
}

void report_untraced(const Options& options, Result& result) {
    std::vector<double> setups;
    Experiment e;
    for (int i = 0; i < kSetupRepeats; ++i) {
        e = Experiment{};
        const adiv::Stopwatch clock;
        e = set_up(options.seed);
        setups.push_back(clock.seconds());
    }
    const adiv::ExperimentPlan plan = make_plan(*e.suite, false);
    // One untimed iteration lets the allocator and caches settle.
    (void)run_checked(plan, kJobs, result);
    const std::vector<Iteration> its =
        run_for(plan, options.seconds, kMinIterations, result);

    result.add("setup_s", median(setups), "s", setups.size(), "setup_s");
    result.add("maps_wall_s", median(field(its, &Iteration::wall_s)), "s", its.size());
    result.add("maps_wall_p10_s", quantile(field(its, &Iteration::wall_s), 0.10), "s",
               its.size(), "wall_p10_s");
    result.add("maps_cpu_s", median(field(its, &Iteration::cpu_s)), "s", its.size(),
               "cpu_s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "peak_rss_mb");
    report_host_probe(result, false);
}

void report_traced(const Options& options, Result& result) {
    set_tracing(true);
    const adiv::Stopwatch setup_clock;
    const Experiment e = set_up(options.seed);
    const double setup_s = setup_clock.seconds();
    set_tracing(false);

    const adiv::ExperimentPlan plan = make_plan(*e.suite, false);
    const adiv::ExperimentPlan timed_plan = make_plan(*e.suite, true);
    (void)run_checked(plan, kJobs, result);
    // Plain, traced and profiled iterations take turns, so a drift in the
    // host's speed shifts all three alike.
    std::vector<Iteration> plain;
    std::vector<Iteration> traced;
    std::vector<Iteration> profiled;
    double elapsed = 0.0;
    for (int k = 0; elapsed < options.seconds * 0.75 || k < 6; ++k) {
        if (k % 3 == 0) {
            plain.push_back(run_checked(plan, kJobs, result));
            elapsed += plain.back().wall_s;
        } else if (k % 3 == 1) {
            set_tracing(true);
            traced.push_back(run_checked(timed_plan, kJobs, result));
            set_tracing(false);
            elapsed += traced.back().wall_s;
        } else {
            adiv::set_profiling_enabled(true);
            profiled.push_back(run_checked(plan, kJobs, result));
            adiv::set_profiling_enabled(false);
            elapsed += profiled.back().wall_s;
        }
    }
    std::vector<Span> spans = collect_spans();
    const Iteration serial = run_checked(plan, 1, result);

    const double wall = median(field(plain, &Iteration::wall_s));
    result.add("setup_s", setup_s, "s", 1);
    result.add("maps_wall_s", wall, "s", plain.size());
    result.add("maps_wall_s.traced", median(field(traced, &Iteration::wall_s)), "s",
               traced.size());
    result.add("maps_wall_s.jobs1", serial.wall_s, "s", 1);

    const auto stats = reduce(spans);
    const double reps = static_cast<double>(traced.size());
    result.layer("datagen.corpus_s", lookup(stats, "datagen.corpus").total_s, "s", 1);
    result.layer("anomaly.suite_s", lookup(stats, "anomaly.suite").total_s, "s", 1);
    double train_max = 0.0;
    SpanStats score_all;
    for (const adiv::DetectorKind kind : adiv::paper_detectors()) {
        const std::string name = adiv::to_string(kind);
        const SpanStats train = lookup(stats, "detect.train." + name);
        const SpanStats score = lookup(stats, "detect.score." + name);
        result.layer("detect.train_s." + name, train.total_s / reps, "s", train.count);
        result.layer("detect.score_s." + name, score.total_s / reps, "s", score.count);
        train_max = std::max(train_max, train.max_s);
        score_all.count += score.count;
        score_all.items += score.items;
        score_all.total_s += score.total_s;
    }
    result.layer("detect.train_max_s", train_max, "s", traced.size());
    result.layer("detect.score_us_per_push", 0.0, "us", 0);
    result.layer("detect.windows_per_s",
                 static_cast<double>(score_all.items) / score_all.total_s, "1/s",
                 score_all.count);
    result.layer("detect.score_contention", 0.0, "ratio", 0);

    std::vector<double> idle;
    std::vector<double> efficiency;
    for (const Iteration& it : plain) {
        const double capacity = static_cast<double>(kJobs) * it.wall_s;
        idle.push_back(capacity - it.busy_s);
        efficiency.push_back(it.busy_s / capacity);
    }
    result.layer("engine.busy_s", median(field(plain, &Iteration::busy_s)), "s",
                 plain.size());
    result.layer("engine.idle_s", median(idle), "s", plain.size());
    result.layer("engine.parallel_efficiency", median(efficiency), "ratio", plain.size());
    result.layer("engine.speedup_vs_jobs1", serial.wall_s / wall, "ratio", plain.size());

    // The paper experiment never enters the online scoring, fusion or serve
    // layers; their metrics read 0 here.
    for (const char* name : {"core.push_batch_us", "core.self_us", "fusion.push_batch_us",
                             "fusion.self_us", "serve.push_self_us", "serve.protocol_us"})
        result.layer(name, 0.0, "us", 0);
    result.layer("core.allocs_per_event", 0.0, "count", 0);
    result.layer("serve.allocs_per_event", 0.0, "count", 0);

    result.layer("obs.profile_cost_pct",
                 (median(field(profiled, &Iteration::wall_s)) / wall - 1.0) * 100.0, "%",
                 profiled.size());
    report_host_probe(result, true);
    result.add("trace.dropped_spans", static_cast<double>(dropped_spans()), "count", 1);
    result.layer("trace.overhead_pct",
                 (median(field(traced, &Iteration::wall_s)) / wall - 1.0) * 100.0, "%",
                 traced.size());

    std::printf("per-layer spans (%zu traced iterations, %llu dropped):\n", traced.size(),
                static_cast<unsigned long long>(dropped_spans()));
    print_span_table(stdout, stats);
    std::filesystem::create_directories(options.spans_dir);
    const std::string path = options.spans_dir + "/paper_maps.jsonl";
    if (!write_spans(path, spans)) result.fail("cannot write " + path, 0);
    clear_spans();
}

}  // namespace

void run_paper_maps(const Options& options, Result& result) {
    if (options.trace)
        report_traced(options, result);
    else
        report_untraced(options, result);
}

}  // namespace perfbench
