// Workloads serve_stide_bulk and serve_ensemble_chatty: an in-process
// serve::Server (jobs 4, shards 4) driven over loopback connections by four
// closed-loop client sessions, one connection each.
//
// Set-up generates the corpus at the workload seed, trains the served
// models on it, generates every session's stream from the paper's cycle
// matrix and starts the server. Each timed pass runs every session once,
// from its OPEN through its whole stream in fixed-size PUSH frames to DRAIN
// and CLOSE; the pass wall time runs from the first OPEN to the last CLOSE.
// After each pass, outside the timer, the served scores are compared bit
// for bit with a serial replay and the DRAINED/CLOSED counters with the
// client's own tallies.
#include <algorithm>
#include <barrier>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "core/online.hpp"
#include "datagen/corpus.hpp"
#include "detect/registry.hpp"
#include "fusion/ensemble_scorer.hpp"
#include "fusion/spec.hpp"
#include "obs/profile.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "host_probe.hpp"
#include "spans.hpp"
#include "timed_detector.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serve = adiv::serve;
using adiv::DetectorKind;
using adiv::Sequence;

constexpr std::size_t kSessions = 4;
constexpr std::size_t kJobs = 4;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWindow = 6;
constexpr int kSetupRepeats = 9;
constexpr int kMinPasses = 5;
constexpr int kReplayRounds = 5;

struct Shape {
    const char* workload;
    std::vector<DetectorKind> kinds;  ///< one: a single model; more: an ensemble
    const char* fuse;                 ///< ensemble fusion rule
    std::size_t frame;                ///< events per PUSH
    std::size_t events_per_session;   ///< events each session pushes per pass
};

std::string model_name(DetectorKind kind) {
    return adiv::to_string(kind) + "/" + std::to_string(kWindow);
}

bool is_ensemble(const Shape& shape) { return shape.kinds.size() > 1; }

/// The OPEN target over catalog names `prefix + model_name(kind)`.
std::string target_for(const Shape& shape, const std::string& prefix) {
    std::string target;
    for (const DetectorKind kind : shape.kinds) {
        if (!target.empty()) target += '+';
        target += prefix + model_name(kind);
    }
    if (is_ensemble(shape)) target += std::string(";fuse=") + shape.fuse;
    return target;
}

struct Deployment {
    std::unique_ptr<adiv::TrainingCorpus> corpus;
    std::vector<std::shared_ptr<adiv::SequenceDetector>> models;  ///< parallel to kinds
    std::vector<Sequence> streams;                                ///< one per session
    std::unique_ptr<serve::Server> server;

    [[nodiscard]] std::vector<std::shared_ptr<const adiv::SequenceDetector>> members() const {
        return {models.begin(), models.end()};
    }
};

Deployment deploy(const Shape& shape, std::uint64_t seed) {
    Deployment d;
    adiv::CorpusSpec spec;
    spec.seed = seed;
    {
        ScopedSpan span("datagen.corpus");
        d.corpus = std::make_unique<adiv::TrainingCorpus>(
            adiv::TrainingCorpus::generate(spec));
    }
    for (const DetectorKind kind : shape.kinds) {
        std::shared_ptr<adiv::SequenceDetector> model = adiv::make_detector(kind, kWindow);
        TimedDetector(model).train(d.corpus->training());
        d.models.push_back(std::move(model));
    }
    const adiv::TransitionMatrix matrix = adiv::make_cycle_matrix(spec);
    for (std::size_t i = 0; i < kSessions; ++i) {
        adiv::Rng rng(seed + 0x9E3779B97F4A7C15ULL * (i + 1));
        const auto start = static_cast<adiv::Symbol>(rng.below(spec.alphabet_size));
        d.streams.push_back(matrix.generate(shape.events_per_session, start, rng).events());
    }
    serve::ServerConfig config;
    config.jobs = kJobs;
    config.shards = kShards;
    d.server = std::make_unique<serve::Server>(config);
    for (std::size_t m = 0; m < shape.kinds.size(); ++m)
        d.server->add_model(model_name(shape.kinds[m]), d.models[m]);
    return d;
}

/// What the server must return for one session: a per-event OnlineScorer
/// replay for a single model, an EnsembleScorer replay for a spec.
std::vector<double> serial_replay(const Shape& shape, const Deployment& d,
                                  const Sequence& events) {
    std::vector<double> expected;
    if (is_ensemble(shape)) {
        adiv::fusion::EnsembleScorer replay(
            adiv::fusion::parse_ensemble_spec(target_for(shape, "")), d.members());
        replay.push_batch(events.data(), events.size(), expected);
        return expected;
    }
    adiv::OnlineScorer replay(*d.models.front());
    expected.reserve(events.size());
    for (const adiv::Symbol s : events)
        if (const auto r = replay.push(s)) expected.push_back(*r);
    return expected;
}

struct SessionLog {
    std::vector<double> scores;
    std::vector<double> latency_us;
    std::uint64_t alarms = 0;
    serve::SessionCounts drained;
    serve::SessionCounts closed;
    std::int64_t open_ns = 0;
    std::int64_t close_ns = 0;
    std::string error;
};

struct Pass {
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/// Four client sessions on persistent loopback connections, each on its own
/// thread; run_pass() releases them together and waits for all to finish.
class ClientFleet {
public:
    ClientFleet(serve::Server& server, const std::vector<Sequence>& streams,
                std::size_t frame)
        : streams_(streams), frame_(frame), logs_(streams.size()),
          sync_(static_cast<std::ptrdiff_t>(streams.size() + 1)) {
        for (std::size_t i = 0; i < streams.size(); ++i) {
            auto [client_end, server_end] = serve::make_loopback_pair();
            adiv::require(server.attach(std::move(server_end)),
                          "server refused a connection");
            clients_.push_back(std::make_unique<serve::Client>(std::move(client_end)));
        }
        targets_.resize(streams.size());
        for (std::size_t i = 0; i < streams.size(); ++i)
            threads_.emplace_back([this, i] { session_main(i); });
    }

    ~ClientFleet() {
        stop_ = true;
        sync_.arrive_and_wait();
        for (auto& t : threads_) t.join();
        for (auto& c : clients_) c->disconnect();
    }

    ClientFleet(const ClientFleet&) = delete;
    ClientFleet& operator=(const ClientFleet&) = delete;

    Pass run_pass(const std::vector<std::string>& targets) {
        targets_ = targets;
        const double cpu0 = cpu_seconds();
        sync_.arrive_and_wait();  // release the sessions
        sync_.arrive_and_wait();  // every session closed
        Pass pass;
        pass.cpu_s = cpu_seconds() - cpu0;
        std::int64_t first_open = logs_.front().open_ns;
        std::int64_t last_close = logs_.front().close_ns;
        for (const SessionLog& log : logs_) {
            first_open = std::min(first_open, log.open_ns);
            last_close = std::max(last_close, log.close_ns);
        }
        pass.wall_s = static_cast<double>(last_close - first_open) * 1e-9;
        return pass;
    }

    [[nodiscard]] const std::vector<SessionLog>& logs() const noexcept { return logs_; }

private:
    void session_main(std::size_t i) {
        for (;;) {
            sync_.arrive_and_wait();
            if (stop_) return;
            run_session(i);
            sync_.arrive_and_wait();
        }
    }

    void run_session(std::size_t i) {
        SessionLog& log = logs_[i];
        log.scores.clear();
        log.latency_us.clear();
        log.alarms = 0;
        log.error.clear();
        serve::Client& client = *clients_[i];
        const Sequence& events = streams_[i];
        const auto session = static_cast<std::uint32_t>(i + 1);
        log.open_ns = now_ns();
        try {
            client.open(targets_[i]);
            for (std::size_t off = 0; off < events.size(); off += frame_) {
                const std::size_t n = std::min(frame_, events.size() - off);
                const std::int64_t t0 = now_ns();
                std::vector<double> scores;
                {
                    ScopedSpan span("serve.push", nullptr, session);
                    span.set_items(n);
                    scores = client.push(adiv::SymbolView(events.data() + off, n));
                }
                log.latency_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
                for (const double s : scores)
                    if (s >= adiv::kMaximalResponse) ++log.alarms;
                log.scores.insert(log.scores.end(), scores.begin(), scores.end());
            }
            log.drained = client.drain();
            log.closed = client.close_session();
        } catch (const std::exception& e) {
            log.error = e.what();
        }
        log.close_ns = now_ns();
    }

    const std::vector<Sequence>& streams_;
    std::size_t frame_;
    std::vector<std::unique_ptr<serve::Client>> clients_;
    std::vector<std::string> targets_;
    std::vector<SessionLog> logs_;
    std::barrier<> sync_;
    bool stop_ = false;  // written before a barrier arrival, read after it
    std::vector<std::thread> threads_;
};

std::size_t frame_count(std::size_t events, std::size_t frame) {
    return (events + frame - 1) / frame;
}

bool same_counts(const serve::SessionCounts& a, const serve::SessionCounts& b) {
    return a.events == b.events && a.windows == b.windows && a.alarms == b.alarms;
}

/// Checks one pass against the replay and the client tallies; every PUSH of
/// a session that fails a check counts as failed.
void check_pass(const ClientFleet& fleet, const std::vector<Sequence>& streams,
                const std::vector<std::vector<double>>& expected, std::size_t frame,
                Result& result) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const SessionLog& log = fleet.logs()[i];
        const std::size_t pushes = frame_count(streams[i].size(), frame);
        result.attempt(pushes);
        const std::string who = "session " + std::to_string(i) + ": ";
        if (!log.error.empty()) {
            result.fail(who + log.error, pushes);
            continue;
        }
        bool ok = true;
        const std::vector<double>& want = expected[i];
        if (log.scores.size() != want.size() ||
            std::memcmp(log.scores.data(), want.data(), want.size() * sizeof(double)) != 0) {
            result.fail(who + "served scores differ from the serial replay", 0);
            ok = false;
        }
        const serve::SessionCounts tally{streams[i].size(), log.scores.size(), log.alarms};
        if (!same_counts(log.drained, tally)) {
            result.fail(who + "DRAINED counters differ from the client tallies", 0);
            ok = false;
        }
        if (!same_counts(log.closed, tally)) {
            result.fail(who + "CLOSED counters differ from the client tallies", 0);
            ok = false;
        }
        if (!ok) result.fail(who + "failed its checks", pushes);
    }
}

struct PassSeries {
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::vector<double> events_per_s;
    std::vector<double> push_us;
};

/// Runs one pass, checks it and appends its figures; returns its wall time.
double record_pass(ClientFleet& fleet, const std::vector<std::string>& targets,
                   const Deployment& d, const std::vector<std::vector<double>>& expected,
                   std::size_t frame, PassSeries& series, Result& result) {
    std::size_t events = 0;
    for (const Sequence& s : d.streams) events += s.size();
    const Pass pass = fleet.run_pass(targets);
    check_pass(fleet, d.streams, expected, frame, result);
    series.wall_s.push_back(pass.wall_s);
    series.cpu_s.push_back(pass.cpu_s);
    series.events_per_s.push_back(static_cast<double>(events) / pass.wall_s);
    for (const SessionLog& log : fleet.logs())
        series.push_us.insert(series.push_us.end(), log.latency_us.begin(),
                              log.latency_us.end());
    return pass.wall_s;
}

PassSeries run_passes(ClientFleet& fleet, const std::vector<std::string>& targets,
                      const Deployment& d, const std::vector<std::vector<double>>& expected,
                      std::size_t frame, double seconds, int min_passes, Result& result) {
    PassSeries series;
    double elapsed = 0.0;
    while (elapsed < seconds || static_cast<int>(series.wall_s.size()) < min_passes)
        elapsed += record_pass(fleet, targets, d, expected, frame, series, result);
    return series;
}

std::vector<std::vector<double>> replay_all(const Shape& shape, const Deployment& d) {
    std::vector<std::vector<double>> expected;
    for (const Sequence& s : d.streams) expected.push_back(serial_replay(shape, d, s));
    return expected;
}

/// The pass figures; with `json`, the gated ones also go to the JSON line.
void report_end_to_end(const PassSeries& s, Result& result, bool json) {
    const auto gated = [json](const char* name) { return json ? name : ""; };
    result.add("pass_wall_s", median(s.wall_s), "s", s.wall_s.size());
    result.add("pass_wall_p10_s", quantile(s.wall_s, 0.10), "s", s.wall_s.size(),
               gated("wall_p10_s"));
    result.add("pass_cpu_s", median(s.cpu_s), "s", s.cpu_s.size(), gated("cpu_s"));
    result.add("events_per_s", median(s.events_per_s), "1/s", s.events_per_s.size());
    result.add("push_p50_us", quantile(s.push_us, 0.50), "us", s.push_us.size());
    result.add("push_p99_us", quantile(s.push_us, 0.99), "us", s.push_us.size());
}

void report_untraced(const Shape& shape, const Options& options, Result& result) {
    std::vector<double> setups;
    Deployment d;
    for (int i = 0; i < kSetupRepeats; ++i) {
        d = Deployment{};
        const adiv::Stopwatch clock;
        d = deploy(shape, options.seed);
        setups.push_back(clock.seconds());
    }
    const std::vector<std::vector<double>> expected = replay_all(shape, d);
    const std::vector<std::string> targets(kSessions, target_for(shape, ""));
    PassSeries series;
    {
        ClientFleet fleet(*d.server, d.streams, shape.frame);
        // One untimed pass warms the sessions' buffers and the model caches.
        (void)run_passes(fleet, targets, d, expected, shape.frame, 0.0, 1, result);
        series = run_passes(fleet, targets, d, expected, shape.frame, options.seconds,
                            kMinPasses, result);
    }
    result.add("setup_s", median(setups), "s", setups.size(), "setup_s");
    report_end_to_end(series, result, true);
    result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "peak_rss_mb");
    report_host_probe(result, false);
}

/// The workload's PUSH frames, cut from each session's stream.
struct Frames {
    std::vector<std::vector<adiv::SymbolView>> views;  ///< per session
    std::size_t count = 0;
    std::size_t events = 0;
};

Frames cut_frames(const Deployment& d, std::size_t frame) {
    Frames f;
    for (const Sequence& s : d.streams) {
        auto& views = f.views.emplace_back();
        for (std::size_t off = 0; off < s.size(); off += frame)
            views.emplace_back(s.data() + off, std::min(frame, s.size() - off));
        f.count += views.size();
        f.events += s.size();
    }
    return f;
}

/// Online scorers over `models` fed one session's frames: the member
/// scorers alone (core), each call in a "core.push_batch" span, and for an
/// ensemble the EnsembleScorer (fusion) in "fusion.push_batch" spans.
/// Returns the per-frame outputs of the session's own scorer.
std::vector<std::vector<double>> replay_layers(
    const Shape& shape, const std::vector<std::shared_ptr<adiv::SequenceDetector>>& models,
    const std::vector<adiv::SymbolView>& views, bool fusion) {
    std::vector<std::vector<double>> outputs;
    std::vector<double> out;
    if (fusion) {
        adiv::fusion::EnsembleScorer scorer(
            adiv::fusion::parse_ensemble_spec(target_for(shape, "")),
            {models.begin(), models.end()});
        for (const adiv::SymbolView v : views) {
            out.clear();
            {
                ScopedSpan span("fusion.push_batch");
                span.set_items(v.size());
                scorer.push_batch(v.data(), v.size(), out);
            }
            outputs.push_back(out);
        }
        return outputs;
    }
    std::vector<std::unique_ptr<adiv::OnlineScorer>> scorers;
    for (const auto& m : models) scorers.push_back(std::make_unique<adiv::OnlineScorer>(*m));
    for (const adiv::SymbolView v : views) {
        for (auto& scorer : scorers) {
            out.clear();
            ScopedSpan span("core.push_batch");
            span.set_items(v.size());
            scorer->push_batch(v.data(), v.size(), out);
        }
        outputs.push_back(out);
    }
    return outputs;
}

/// The online scoring layers replayed alone on this thread, on the
/// workload's own frames: per-round figures, plus the spans, stats and
/// per-frame replies of the last round.
struct AloneLayers {
    std::vector<double> core_us;         ///< OnlineScorer::push_batch per frame
    std::vector<double> core_self_us;    ///< the same minus detect.score
    std::vector<double> fusion_us;       ///< EnsembleScorer::push_batch per frame
    std::vector<double> fusion_self_us;  ///< fusion minus core, same round
    std::vector<double> score_s;         ///< detect.score total per round
    std::vector<Span> core_spans;
    std::vector<Span> fusion_spans;
    std::map<std::string, SpanStats> core_stats;
    std::map<std::string, SpanStats> fusion_stats;
    std::vector<std::vector<std::vector<double>>> replies;  ///< per session, per frame
};

/// Rounds alternate the core and fusion replays so a drift in the host's
/// speed shifts both; callers take the median over rounds. An untraced round
/// first warms the models' score memos.
AloneLayers replay_alone(const Shape& shape, const Deployment& d, const Frames& frames) {
    const auto per_frame = [&](double seconds) {
        return seconds * 1e6 / static_cast<double>(frames.count);
    };
    std::vector<std::shared_ptr<adiv::SequenceDetector>> timed;
    for (const auto& m : d.models) timed.push_back(std::make_shared<TimedDetector>(m));
    const auto replay_round = [&](bool fusion) {
        std::vector<std::vector<std::vector<double>>> outputs;
        for (const auto& views : frames.views)
            outputs.push_back(replay_layers(shape, timed, views, fusion));
        return outputs;
    };
    (void)replay_round(false);
    if (is_ensemble(shape)) (void)replay_round(true);
    AloneLayers a;
    for (int round = 0; round < kReplayRounds; ++round) {
        set_tracing(true);
        a.replies = replay_round(false);
        set_tracing(false);
        a.core_spans = collect_spans();
        clear_spans();
        a.core_stats = reduce(a.core_spans);
        const SpanStats core = lookup(a.core_stats, "core.push_batch");
        a.core_us.push_back(per_frame(core.total_s));
        a.core_self_us.push_back(per_frame(core.self_s));
        double score_s = 0.0;
        for (const DetectorKind kind : shape.kinds)
            score_s += lookup(a.core_stats, "detect.score." + adiv::to_string(kind)).total_s;
        a.score_s.push_back(score_s);
        if (!is_ensemble(shape)) continue;
        set_tracing(true);
        a.replies = replay_round(true);
        set_tracing(false);
        a.fusion_spans = collect_spans();
        clear_spans();
        a.fusion_stats = reduce(a.fusion_spans);
        const SpanStats fusion = lookup(a.fusion_stats, "fusion.push_batch");
        a.fusion_us.push_back(per_frame(fusion.total_s));
        a.fusion_self_us.push_back(per_frame(fusion.total_s - core.total_s));
    }
    return a;
}

/// Allocations of the server-side PUSH path replayed on this thread:
/// parse the request, score it, serialize and frame the reply. With
/// `scorer_only`, just the OnlineScorer::push_batch calls of the members.
std::uint64_t count_allocations(const Shape& shape, const Deployment& d,
                                const Frames& frames,
                                const std::vector<std::vector<std::string>>& payloads,
                                bool scorer_only) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < frames.views.size(); ++i) {
        if (scorer_only) {
            std::vector<std::unique_ptr<adiv::OnlineScorer>> scorers;
            for (const auto& m : d.models)
                scorers.push_back(std::make_unique<adiv::OnlineScorer>(*m));
            std::vector<double> out;
            out.reserve(shape.frame);
            const std::uint64_t before = allocation_count();
            for (const adiv::SymbolView v : frames.views[i])
                for (auto& scorer : scorers) {
                    out.clear();
                    scorer->push_batch(v.data(), v.size(), out);
                }
            total += allocation_count() - before;
            continue;
        }
        std::unique_ptr<adiv::fusion::EnsembleScorer> ensemble;
        std::unique_ptr<adiv::OnlineScorer> single;
        if (is_ensemble(shape))
            ensemble = std::make_unique<adiv::fusion::EnsembleScorer>(
                adiv::fusion::parse_ensemble_spec(target_for(shape, "")), d.members());
        else
            single = std::make_unique<adiv::OnlineScorer>(*d.models.front());
        serve::Request request;
        serve::Response response;
        response.type = serve::ResponseType::Scores;
        std::string payload;
        std::string frame;
        const std::uint64_t before = allocation_count();
        for (const std::string& p : payloads[i]) {
            serve::parse_request_into(p, request);
            response.scores.clear();
            if (ensemble)
                ensemble->push_batch(request.events.data(), request.events.size(),
                                     response.scores);
            else
                single->push_batch(request.events.data(), request.events.size(),
                                   response.scores);
            serve::serialize_into(response, payload);
            serve::encode_frame_into(payload, frame);
        }
        total += allocation_count() - before;
    }
    return total;
}

/// Exact allocations per event, counted twice after a warm-up replay; a
/// count that does not repeat is a failed check.
double allocs_per_event(const Shape& shape, const Deployment& d, const Frames& frames,
                        const std::vector<std::vector<std::string>>& payloads,
                        bool scorer_only, const char* name, Result& result) {
    (void)count_allocations(shape, d, frames, payloads, scorer_only);
    const std::uint64_t first = count_allocations(shape, d, frames, payloads, scorer_only);
    const std::uint64_t second = count_allocations(shape, d, frames, payloads, scorer_only);
    if (first != second)
        result.fail(std::string(name) + " does not repeat: " + std::to_string(first) +
                        " vs " + std::to_string(second) + " allocations",
                    0);
    return static_cast<double>(first) / static_cast<double>(frames.events);
}

/// Mean microseconds per frame of the protocol work a PUSH costs: parse the
/// request, serialize the SCORES reply, parse the reply.
double protocol_us(const Frames& frames,
                   const std::vector<std::vector<std::string>>& payloads,
                   const std::vector<std::vector<std::vector<double>>>& replies) {
    std::vector<double> rounds;
    serve::Request request;
    serve::Response response;
    response.type = serve::ResponseType::Scores;
    std::string payload;
    for (int round = 0; round < 3; ++round) {
        const adiv::Stopwatch clock;
        for (std::size_t i = 0; i < payloads.size(); ++i)
            for (std::size_t k = 0; k < payloads[i].size(); ++k) {
                serve::parse_request_into(payloads[i][k], request);
                response.scores = replies[i][k];
                serve::serialize_into(response, payload);
                const serve::Response parsed = serve::parse_response(payload);
                asm volatile("" : : "g"(parsed.scores.data()) : "memory");
            }
        rounds.push_back(clock.seconds() * 1e6 / static_cast<double>(frames.count));
    }
    return median(rounds);
}

void report_traced(const Shape& shape, const Options& options, Result& result) {
    set_tracing(true);
    const adiv::Stopwatch setup_clock;
    Deployment d = deploy(shape, options.seed);
    const double setup_s = setup_clock.seconds();
    set_tracing(false);
    std::vector<Span> all_spans = collect_spans();
    const auto setup_stats = reduce(all_spans);
    clear_spans();

    const std::vector<std::vector<double>> expected = replay_all(shape, d);
    const std::vector<std::string> targets(kSessions, target_for(shape, ""));
    std::vector<std::string> traced_targets;
    for (std::size_t i = 0; i < kSessions; ++i) {
        const std::string prefix = "t" + std::to_string(i) + ".";
        traced_targets.push_back(target_for(shape, prefix));
        for (std::size_t m = 0; m < shape.kinds.size(); ++m)
            d.server->add_model(prefix + model_name(shape.kinds[m]),
                                std::make_shared<TimedDetector>(
                                    d.models[m], static_cast<std::uint32_t>(i + 1)));
    }

    PassSeries plain;
    PassSeries profiled;
    PassSeries traced;
    {
        ClientFleet fleet(*d.server, d.streams, shape.frame);
        (void)run_passes(fleet, targets, d, expected, shape.frame, 0.0, 1, result);
        // Plain, profiled and traced passes take turns, so a drift in the
        // host's speed shifts all three alike.
        double elapsed = 0.0;
        for (int k = 0; elapsed < options.seconds * 0.75 || k < 9; ++k) {
            const int mode = k % 3;
            adiv::set_profiling_enabled(mode == 1);
            set_tracing(mode == 2);
            PassSeries& series = mode == 0 ? plain : mode == 1 ? profiled : traced;
            elapsed += record_pass(fleet, mode == 2 ? traced_targets : targets, d, expected,
                                   shape.frame, series, result);
            set_tracing(false);
            adiv::set_profiling_enabled(false);
        }
    }
    std::vector<Span> served = collect_spans();
    const std::uint64_t dropped = dropped_spans();
    clear_spans();
    link_by_session(served, "serve.push", "detect.score");
    const auto served_stats = reduce(served);

    const Frames frames = cut_frames(d, shape.frame);
    const AloneLayers alone = replay_alone(shape, d, frames);

    std::vector<std::vector<std::string>> payloads;
    for (const auto& views : frames.views) {
        auto& list = payloads.emplace_back();
        for (const adiv::SymbolView v : views) {
            serve::Request request;
            request.type = serve::RequestType::Push;
            request.events.assign(v.begin(), v.end());
            list.push_back(serve::serialize(request));
        }
    }

    report_end_to_end(plain, result, false);
    result.add("setup_s", setup_s, "s", 1);
    result.add("events_per_s.traced", median(traced.events_per_s), "1/s",
               traced.events_per_s.size());
    result.add("events_per_s.profiled", median(profiled.events_per_s), "1/s",
               profiled.events_per_s.size());

    result.layer("datagen.corpus_s", lookup(setup_stats, "datagen.corpus").total_s, "s", 1);
    result.layer("anomaly.suite_s", 0.0, "s", 0);
    const double passes = static_cast<double>(traced.wall_s.size());
    double train_max = 0.0;
    SpanStats served_score;
    for (const DetectorKind kind : adiv::paper_detectors()) {
        const std::string name = adiv::to_string(kind);
        const SpanStats train = lookup(setup_stats, "detect.train." + name);
        const SpanStats score = lookup(served_stats, "detect.score." + name);
        result.layer("detect.train_s." + name, train.total_s, "s", train.count);
        result.layer("detect.score_s." + name, score.total_s / passes, "s", score.count);
        train_max = std::max(train_max, train.max_s);
        served_score.count += score.count;
        served_score.items += score.items;
        served_score.total_s += score.total_s;
    }
    const SpanStats push = lookup(served_stats, "serve.push");
    result.layer("detect.train_max_s", train_max, "s", shape.kinds.size());
    result.layer("detect.score_us_per_push",
                 served_score.total_s * 1e6 / static_cast<double>(push.count), "us",
                 push.count);
    result.layer("detect.windows_per_s",
                 static_cast<double>(served_score.items) / served_score.total_s, "1/s",
                 served_score.count);
    result.layer("detect.score_contention",
                 served_score.total_s / passes / median(alone.score_s), "ratio",
                 served_score.count);

    for (const char* name : {"engine.busy_s", "engine.idle_s"}) result.layer(name, 0.0, "s", 0);
    for (const char* name : {"engine.parallel_efficiency", "engine.speedup_vs_jobs1"})
        result.layer(name, 0.0, "ratio", 0);

    result.layer("core.push_batch_us", median(alone.core_us), "us", frames.count);
    result.layer("core.self_us", median(alone.core_self_us), "us", frames.count);
    result.layer("core.allocs_per_event",
                 allocs_per_event(shape, d, frames, payloads, true, "core.allocs_per_event",
                                  result),
                 "count", frames.events);
    const std::size_t fusion_frames = is_ensemble(shape) ? frames.count : 0;
    result.layer("fusion.push_batch_us", median(alone.fusion_us), "us", fusion_frames);
    result.layer("fusion.self_us", median(alone.fusion_self_us), "us", fusion_frames);

    result.layer("serve.push_self_us", push.mean_self_us(), "us", push.count);
    result.layer("serve.protocol_us", protocol_us(frames, payloads, alone.replies), "us",
                 frames.count);
    result.layer("serve.allocs_per_event",
                 allocs_per_event(shape, d, frames, payloads, false,
                                  "serve.allocs_per_event", result),
                 "count", frames.events);

    result.layer("obs.profile_cost_pct",
                 (median(profiled.wall_s) / median(plain.wall_s) - 1.0) * 100.0, "%",
                 profiled.wall_s.size());
    report_host_probe(result, true);
    result.add("trace.dropped_spans", static_cast<double>(dropped), "count", 1);
    result.layer("trace.overhead_pct",
                 (median(traced.wall_s) / median(plain.wall_s) - 1.0) * 100.0, "%",
                 traced.wall_s.size());

    std::printf("per-layer spans, served (%zu traced passes, %llu dropped):\n",
                traced.wall_s.size(), static_cast<unsigned long long>(dropped));
    print_span_table(stdout, served_stats);
    std::printf("per-layer spans, layers alone on one thread:\n");
    print_span_table(stdout, alone.core_stats);
    if (!alone.fusion_spans.empty()) print_span_table(stdout, alone.fusion_stats);

    all_spans.insert(all_spans.end(), served.begin(), served.end());
    all_spans.insert(all_spans.end(), alone.core_spans.begin(), alone.core_spans.end());
    all_spans.insert(all_spans.end(), alone.fusion_spans.begin(), alone.fusion_spans.end());
    std::filesystem::create_directories(options.spans_dir);
    const std::string path = options.spans_dir + "/" + shape.workload + ".jsonl";
    if (!write_spans(path, all_spans)) result.fail("cannot write " + path, 0);
}

void run_serve(const Shape& shape, const Options& options, Result& result) {
    if (options.trace)
        report_traced(shape, options, result);
    else
        report_untraced(shape, options, result);
}

}  // namespace

void run_serve_stide_bulk(const Options& options, Result& result) {
    run_serve({"serve_stide_bulk", {DetectorKind::Stide}, "", 512, 262'144}, options,
              result);
}

void run_serve_ensemble_chatty(const Options& options, Result& result) {
    run_serve({"serve_ensemble_chatty",
               {DetectorKind::Stide, DetectorKind::Markov, DetectorKind::LaneBrodley},
               "vote",
               32,
               131'072},
              options, result);
}

}  // namespace perfbench
