// adiv_loadgen: concurrent client load for an adiv_serve detection server.
//
// Two modes share the same per-session replay (OPEN, batched PUSH, DRAIN,
// CLOSE, with every response collected and counted):
//
//   * TCP mode (--port): drives a running adiv_serve daemon over real
//     sockets. The CI smoke test uses this.
//
//       adiv_loadgen --port 7007 --model monitor.adiv --sessions 8 --verify
//
//   * Sweep mode (--sweep-jobs / --sweep-shards): builds an in-process
//     server per shards x jobs point over loopback transports — hermetic,
//     no daemon needed — and prints one throughput line per point.
//
//       adiv_loadgen --model monitor.adiv --sweep-jobs 1,2,4,0
//
// Each session replays an independently seeded stream drawn from the
// paper's cycle-plus-deviations transition matrix (falling back to uniform
// symbols for tiny alphabets). With --verify (needs --model so the same
// trained detector exists locally), the scores that came back over the wire
// are compared BIT-IDENTICALLY against a single-threaded OnlineScorer
// replay of the same events — the end-to-end determinism check. DRAINED
// counters must match the client-side tallies exactly (no lost or
// duplicated responses); any mismatch makes the exit status nonzero.
//
// The reported seconds (and events/s) cover only the load itself: every
// session OPENs and generates its stream, the sessions meet at a barrier,
// and the clock runs from that barrier to the last CLOSE. The --verify
// replays run after the clock stops, so verifying never changes the
// measured throughput.
//
// --scrape drives the METRICS verb concurrently with the load: a scraper
// connection pulls the OpenMetrics exposition twice mid-run, parses both,
// and fails the run when any counter moves backwards between scrapes.
// --scrape-http PORT does the same end-to-end over the daemon's HTTP
// GET /metrics endpoint (TCP mode only, no curl needed in CI).
//
// An ensemble spec as --target ("stide/6+markov/6;fuse=ds", members named
// by --model files as "<name>/<DW>") OPENs fused sessions in either mode;
// --verify then bit-compares the served fused scores against a local
// fusion::EnsembleScorer replay. The fused-suppression claim itself is
// pinned in tier-1 (EnsembleClaims.FusedRuleBeatsBestMemberAtMatchedCoverage).
//
// Every client call is timed into a per-session mergeable quantile sketch
// (obs/sketch.hpp), so each run also reports client-side latency per verb
// (OPEN/PUSH/DRAIN/CLOSE, p50/p95/p99/max within the sketch's documented
// relative-error bound) in its summary lines; sessions merge associatively,
// so the digest is independent of join order.
//
// --trace PATH turns on request tracing: every session gets a
// deterministic trace id derived from --seed, each OPEN/PUSH carries its
// trace context on the wire (serve/protocol.hpp), and the client-side verb
// spans stream to PATH. Against a daemon started with --trace, feed both
// files to `adiv_traceview --request <id>` to see one request's causal
// tree across the processes; the per-session ids are printed so the id is
// never guessed. --verify is unaffected: ids depend only on the seed.
//
// --profile (sweep mode, ADIV_PROFILE builds) turns each point into a
// contention profile: the global metrics registry is reset per point, and
// after the drain a `profile:` line gives the serve.stage.total_us sample
// count and names the dominant wait site. --profile-trace PATH additionally
// streams the sampled event_stage lines and per-point wait_site digests as
// JSONL for `adiv_traceview --contention`. --dump pulls each session's
// flight recorder (DUMP verb) before CLOSE and fails the run if the dump
// does not replay as `seq=` records.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "adiv.hpp"

using namespace adiv;

namespace {

struct LoadSpec {
    std::size_t sessions = 8;
    std::size_t events_per_session = 125'000;
    std::size_t batch = 512;
    std::string target = "default";
    std::uint64_t seed = 20050628;
    bool verify = false;
    bool scrape = false;  // concurrent METRICS scrapes during the run
    bool dump = false;    // pull the flight recorder (DUMP) before CLOSE
    bool trace = false;   // mint per-session trace ids (--trace)
    std::size_t scorer_buffer = 0;  // must match the server's --buffer
};

/// Deterministic per-session trace id: a pure function of (seed, session),
/// so a traced --verify run replays the same ids and the printed id can be
/// fed to `adiv_traceview --request` from a script. Never 0 (0 = untraced).
std::uint64_t session_trace_id(std::uint64_t seed, std::size_t index) {
    SplitMix64 mix(seed ^ 0x747261636564ULL);  // "traced"
    mix.next();
    SplitMix64 per(mix.next() + index);
    const std::uint64_t id = per.next();
    return id == 0 ? 1 : id;
}

struct SessionOutcome {
    std::size_t events = 0;
    std::size_t windows = 0;
    std::uint64_t alarms = 0;
    std::vector<std::string> errors;
    /// Client-side wall time of every protocol call, microseconds, keyed by
    /// verb in a mergeable quantile sketch. PUSH gets one sample per frame,
    /// the others one per session; traced calls leave their span as the
    /// tail exemplar.
    std::map<std::string, QuantileSketch> latency_us;
};

/// Per-session replay stream: the paper's cycle matrix when the alphabet can
/// host it, uniform symbols otherwise. Seeded per session so every session
/// (and the local verification replay) regenerates the same events.
Sequence make_session_stream(std::size_t alphabet, std::size_t length,
                             std::uint64_t seed) {
    Rng rng(seed);
    CorpusSpec spec;
    spec.alphabet_size = alphabet;
    try {
        const TransitionMatrix matrix = make_cycle_matrix(spec);
        const Symbol start = static_cast<Symbol>(rng.below(alphabet));
        return matrix.generate(length, start, rng).events();
    } catch (const InvalidArgument&) {
        Sequence events(length);
        for (auto& s : events) s = static_cast<Symbol>(rng.below(alphabet));
        return events;
    }
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    return a.empty() ||
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Serial local replay of one session's events; returns the expected score
/// stream. Empty when --verify is off. A fresh scorer per call, so every
/// session (and every sweep point) replays from a clean state.
using ReplayFn = std::function<std::vector<double>(const Sequence&)>;

using ModelMap =
    std::map<std::string, std::shared_ptr<const SequenceDetector>>;

/// Builds the --verify replayer for an OPEN target over the locally loaded
/// models: ensemble specs replay through a fresh fusion::EnsembleScorer,
/// plain targets through a per-event OnlineScorer — both of which the
/// server's own scoring must match bit for bit.
ReplayFn make_replayer(const std::string& target, const ModelMap& models,
                       std::size_t scorer_buffer) {
    const auto resolve = [&](const std::string& name) {
        const auto it = models.find(name);
        require(it != models.end(), "--verify: target member '" + name +
                                        "' is not among the --model files");
        return it->second;
    };
    if (fusion::is_ensemble_spec(target)) {
        const fusion::EnsembleSpec espec = fusion::parse_ensemble_spec(target);
        std::vector<std::shared_ptr<const SequenceDetector>> members;
        members.reserve(espec.members.size());
        for (const auto& name : espec.members) members.push_back(resolve(name));
        return [espec, members, scorer_buffer](const Sequence& events) {
            fusion::EnsembleScorer replay(espec, members, scorer_buffer);
            std::vector<double> expected;
            replay.push_batch(events.data(), events.size(), expected);
            return expected;
        };
    }
    const std::shared_ptr<const SequenceDetector> model = resolve(target);
    return [model, scorer_buffer](const Sequence& events) {
        OnlineScorer replay(*model, scorer_buffer);
        std::vector<double> expected;
        expected.reserve(events.size());
        for (const Symbol s : events)
            if (const auto r = replay.push(s)) expected.push_back(*r);
        return expected;
    };
}

/// The timed region of one load run. Sessions OPEN and generate their
/// streams, then meet at start() (the clock restarts as the last one
/// arrives); each session calls stop() right after its CLOSE, and the last
/// arrival reads the clock. The region thus spans the barrier to the last
/// CLOSE: no stream generation, no --verify replay.
class TimedRegion {
public:
    explicit TimedRegion(std::size_t sessions)
        : start_(static_cast<std::ptrdiff_t>(sessions), Restart{&clock_}),
          stop_(static_cast<std::ptrdiff_t>(sessions), Read{&clock_, &seconds_}) {}

    void start() { start_.arrive_and_wait(); }
    void stop() { stop_.arrive_and_wait(); }

    /// Valid once every session has called stop().
    [[nodiscard]] double seconds() const noexcept { return seconds_; }

private:
    struct Restart {
        Stopwatch* clock;
        void operator()() noexcept { clock->restart(); }
    };
    struct Read {
        const Stopwatch* clock;
        double* seconds;
        void operator()() noexcept { *seconds = clock->seconds(); }
    };

    Stopwatch clock_;
    double seconds_ = 0.0;
    std::barrier<Restart> start_;
    std::barrier<Read> stop_;
};

/// One full session against the server behind `transport`. Collects every
/// score, checks DRAIN/CLOSE counters, optionally replays locally once the
/// timed region has closed. Meets both `region` barriers exactly once, even
/// when it fails early, so no other session is left waiting.
SessionOutcome run_session(std::unique_ptr<serve::Transport> transport,
                           const LoadSpec& spec, std::size_t index,
                           const ReplayFn& local_replay, TimedRegion& region) {
    SessionOutcome outcome;
    bool started = false;
    bool stopped = false;
    auto fail = [&](std::string what) {
        outcome.errors.push_back("session " + std::to_string(index) + ": " +
                                 std::move(what));
    };
    try {
        serve::Client client(std::move(transport));
        const std::uint64_t trace =
            spec.trace ? session_trace_id(spec.seed, index) : 0;
        client.set_trace(trace);
        // Each timed call offers its wire span as an exemplar, so a scraped
        // tail latency names the spans behind it.
        const auto timed = [&](const char* verb, double seconds) {
            outcome.latency_us[verb].record(seconds * 1e6, trace,
                                            client.last_span_id());
        };
        Stopwatch call;
        const serve::OpenInfo info = client.open(spec.target);
        timed("OPEN", call.seconds());
        const Sequence events = make_session_stream(
            info.alphabet, spec.events_per_session, spec.seed + index);
        started = true;
        region.start();

        std::vector<double> scores;
        if (events.size() >= info.window)
            scores.reserve(events.size() - info.window + 1);
        QuantileSketch& push_latency = outcome.latency_us["PUSH"];
        for (std::size_t pos = 0; pos < events.size(); pos += spec.batch) {
            const std::size_t n = std::min(spec.batch, events.size() - pos);
            call.restart();
            const std::vector<double> batch_scores =
                client.push(SymbolView(events).subspan(pos, n));
            push_latency.record(call.seconds() * 1e6, trace,
                                client.last_span_id());
            scores.insert(scores.end(), batch_scores.begin(), batch_scores.end());
        }

        call.restart();
        const serve::SessionCounts drained = client.drain();
        timed("DRAIN", call.seconds());
        if (drained.events != events.size())
            fail("DRAINED events " + std::to_string(drained.events) +
                 ", pushed " + std::to_string(events.size()));
        if (drained.windows != scores.size())
            fail("DRAINED windows " + std::to_string(drained.windows) +
                 ", responses received " + std::to_string(scores.size()));
        if (spec.dump) {
            call.restart();
            const std::string dump = client.dump();
            timed("DUMP", call.seconds());
            // The ring replays newest-K events as `seq=...` lines; after a
            // full session it must hold something and parse as records. The
            // ring only fills while the server profiles, so an empty dump
            // means the daemon is missing --profile.
            if (dump.empty() || dump.rfind("seq=", 0) != 0)
                fail("DUMP returned no flight records (server running "
                     "without --profile?): '" +
                     dump.substr(0, dump.find('\n')) + "'");
        }
        call.restart();
        const serve::SessionCounts closed = client.close_session();
        timed("CLOSE", call.seconds());
        stopped = true;
        region.stop();
        if (closed.windows != drained.windows || closed.events != drained.events)
            fail("CLOSED counters disagree with DRAINED");
        client.disconnect();

        if (spec.verify && local_replay) {
            if (!bit_identical(scores, local_replay(events)))
                fail("served scores differ from local serial replay");
        }

        outcome.events = events.size();
        outcome.windows = scores.size();
        outcome.alarms = drained.alarms;
    } catch (const std::exception& e) {
        fail(e.what());
    }
    if (!started) region.start();
    if (!stopped) region.stop();
    return outcome;
}

/// Scrapes the server's METRICS verb twice while load runs: both expositions
/// must parse as OpenMetrics and every `_total` counter must be monotone
/// non-decreasing between the scrapes.
std::vector<std::string> scrape_check(
    const std::function<std::unique_ptr<serve::Transport>(std::size_t)>& connect) {
    std::vector<std::string> errors;
    try {
        serve::Client client(connect(0));
        const OpenMetricsDocument before = parse_openmetrics(client.metrics());
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        const OpenMetricsDocument after = parse_openmetrics(client.metrics());
        for (const auto& sample : before.samples) {
            constexpr std::string_view kTotal = "_total";
            if (sample.name.size() <= kTotal.size() ||
                sample.name.compare(sample.name.size() - kTotal.size(),
                                    kTotal.size(), kTotal) != 0)
                continue;
            const std::optional<double> later =
                after.value(sample.name, sample.labels);
            if (!later) {
                errors.push_back("scrape: counter " + sample.name +
                                 " vanished between scrapes");
            } else if (*later < sample.value) {
                errors.push_back("scrape: counter " + sample.name +
                                 " moved backwards (" +
                                 std::to_string(sample.value) + " -> " +
                                 std::to_string(*later) + ")");
            }
        }
        client.disconnect();
    } catch (const std::exception& e) {
        errors.push_back(std::string("scrape: ") + e.what());
    }
    return errors;
}

/// Connect/read bound for the metrics probes: a wedged daemon must fail the
/// run in seconds, not hold it until the kernel gives up.
constexpr int kScrapeTimeoutMs = 5000;

/// One raw HTTP GET against the daemon's --metrics-port: status must be 200
/// and the body must parse as OpenMetrics. Both the connect and every read
/// are bounded by kScrapeTimeoutMs.
std::vector<std::string> scrape_http_check(const std::string& host,
                                           std::uint16_t port) {
    std::vector<std::string> errors;
    try {
        std::unique_ptr<serve::Transport> transport =
            serve::tcp_connect(host, port, kScrapeTimeoutMs);
        transport->set_read_timeout(kScrapeTimeoutMs);
        const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
        transport->write_all(request.data(), request.size());
        std::string response;
        char buffer[4096];
        for (;;) {
            const std::size_t n = transport->read_some(buffer, sizeof buffer);
            if (n == 0) break;
            response.append(buffer, n);
        }
        transport->close();
        if (response.rfind("HTTP/1.0 200", 0) != 0) {
            errors.push_back("scrape-http: expected HTTP/1.0 200, got '" +
                             response.substr(0, response.find('\r')) + "'");
        } else {
            const std::size_t body = response.find("\r\n\r\n");
            if (body == std::string::npos)
                errors.push_back("scrape-http: response has no header/body split");
            else
                parse_openmetrics(response.substr(body + 4));  // throws if bad
        }
    } catch (const std::exception& e) {
        errors.push_back(std::string("scrape-http: ") + e.what());
    }
    return errors;
}

struct RunResult {
    double seconds = 0.0;
    std::size_t total_events = 0;
    std::uint64_t total_alarms = 0;
    std::vector<std::string> errors;
    /// Per-session sketches merged across every session, by verb. Merging
    /// is associative, so the digest is independent of session join order.
    std::map<std::string, QuantileSketch> latency_us;

    [[nodiscard]] double events_per_sec() const noexcept {
        return seconds > 0.0 ? static_cast<double>(total_events) / seconds : 0.0;
    }
};

/// Runs `spec.sessions` concurrent sessions; `connect` supplies one fresh
/// transport per session (a TCP connect or a loopback attach).
RunResult run_load(
    const LoadSpec& spec, const ReplayFn& local_replay,
    const std::function<std::unique_ptr<serve::Transport>(std::size_t)>& connect) {
    std::vector<SessionOutcome> outcomes(spec.sessions);
    std::vector<std::string> scrape_errors;
    TimedRegion region(spec.sessions);
    {
        std::vector<std::thread> threads;
        threads.reserve(spec.sessions);
        for (std::size_t i = 0; i < spec.sessions; ++i)
            threads.emplace_back([&, i] {
                outcomes[i] =
                    run_session(connect(i), spec, i, local_replay, region);
            });
        // The scraper rides alongside the load so the exposition is pulled
        // while counters are actually moving.
        std::thread scraper;
        if (spec.scrape)
            scraper = std::thread([&] { scrape_errors = scrape_check(connect); });
        for (auto& t : threads) t.join();
        if (scraper.joinable()) scraper.join();
    }
    RunResult result;
    result.seconds = region.seconds();
    for (const auto& outcome : outcomes) {
        result.total_events += outcome.events;
        result.total_alarms += outcome.alarms;
        result.errors.insert(result.errors.end(), outcome.errors.begin(),
                             outcome.errors.end());
        for (const auto& [verb, sketch] : outcome.latency_us)
            result.latency_us[verb].merge_from(sketch);
    }
    result.errors.insert(result.errors.end(), scrape_errors.begin(),
                         scrape_errors.end());
    return result;
}

/// One summary line per verb: sketch percentiles (within the documented
/// relative-error bound; max is exact) over every call the run made.
void print_latency_summary(const RunResult& result) {
    for (const auto& [verb, sketch] : result.latency_us) {
        const SketchSummary s = sketch.summary();
        std::printf("  client latency %-5s n=%-6llu p50=%.1fus p95=%.1fus "
                    "p99=%.1fus max=%.1fus\n",
                    verb.c_str(), static_cast<unsigned long long>(s.count),
                    s.p50, s.p95, s.p99, s.max);
    }
}

/// --<option> "1,2,4" -> {1, 2, 4}; empty input -> empty list. Each item is
/// a size_t in the one number grammar: `-1` is an error, not SIZE_MAX.
std::vector<std::size_t> parse_size_list(const std::string& option,
                                         std::string_view text) {
    std::vector<std::size_t> values;
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t comma = std::min(text.find(',', pos), text.size());
        const std::string_view item = text.substr(pos, comma - pos);
        const std::optional<std::size_t> value = parse_number<std::size_t>(item);
        if (!value)
            throw InvalidArgument("--" + option +
                                  " expects non-negative integers, got '" +
                                  std::string(item) + "'");
        values.push_back(*value);
        pos = comma + 1;
    }
    return values;
}

/// The digest of one profiled sweep point, captured after the point's
/// server drained and before the next point resets the registry.
struct ProfilePoint {
    std::uint64_t stage_samples = 0;  ///< serve.stage.total_us count
    std::string dominant_site;        ///< empty when nothing contended
};

ProfilePoint capture_profile_point() {
    ProfilePoint point;
    if (const Sketch* total = global_metrics().find_sketch("serve.stage.total_us"))
        point.stage_samples = total->summary().count;
    const std::vector<WaitSiteSummary> sites = global_wait_sites().summaries();
    if (const WaitSiteSummary* dominant = dominant_wait_site(sites))
        point.dominant_site = dominant->name;
    return point;
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("adiv_loadgen",
                  "concurrent client load against an adiv_serve server");
    cli.add_option("port", "0", "TCP mode: port of a running adiv_serve");
    cli.add_option("host", "127.0.0.1", "TCP mode: server host");
    cli.add_option("sweep-jobs", "",
                   "sweep mode: comma-separated jobs values (0 = hardware), "
                   "each run against an in-process loopback server");
    cli.add_option("sweep-shards", "",
                   "sweep mode: comma-separated shards values crossed with "
                   "--sweep-jobs (0 = one shard per worker)");
    cli.add_option("model", "",
                   "trained model file(s), comma-separated: serve the sweep, "
                   "verify TCP runs, and supply ensemble members");
    cli.add_option("sessions", "8", "concurrent client sessions");
    cli.add_option("events", "125000", "events pushed per session");
    cli.add_option("batch", "512", "events per PUSH frame");
    cli.add_option("target", "default",
                   "OPEN target: a model name, or an ensemble spec such as "
                   "\"stide/6+markov/6;fuse=ds\"");
    cli.add_option("seed", "20050628", "base seed; session i uses seed+i");
    cli.add_option("queue", "256", "sweep mode: server queue capacity");
    cli.add_option("buffer", "0",
                   "scorer buffer (must match the server's --buffer)");
    cli.add_option("trace", "",
                   "request tracing: write client verb spans here, stamp "
                   "every OPEN/PUSH with a deterministic per-session trace "
                   "id, and print the ids for adiv_traceview --request");
    cli.add_flag("verify",
                 "bit-compare served scores against a local OnlineScorer "
                 "replay (requires --model)");
    cli.add_flag("scrape",
                 "pull METRICS twice mid-run; fail on unparseable exposition "
                 "or non-monotone counters");
    cli.add_option("scrape-http", "",
                   "TCP mode: also GET /metrics from the daemon's "
                   "--metrics-port at this port");
    cli.add_flag("dump",
                 "pull each session's flight recorder (DUMP) before CLOSE; "
                 "fail unless it replays as seq= records (needs a profiling "
                 "server)");
    cli.add_flag("profile",
                 "sweep mode: profile each point — reset the registry, "
                 "capture serve.stage.* and wait sites after the drain "
                 "(ADIV_PROFILE builds)");
    cli.add_option("profile-sample", "64",
                   "sweep mode: server emits one event_stage trace line per "
                   "N PUSHes under --profile (0 = none)");
    cli.add_option("profile-trace", "",
                   "write event_stage + wait_site JSONL here for "
                   "adiv_traceview --contention (requires --profile)");
    cli.add_option("flight", "64",
                   "sweep mode: per-session flight-recorder capacity");
    try {
        if (!cli.parse(argc, argv)) return 0;

        LoadSpec spec;
        spec.sessions = cli.get_number<std::size_t>("sessions");
        spec.events_per_session = cli.get_number<std::size_t>("events");
        spec.batch = cli.get_number<std::size_t>("batch");
        spec.target = cli.get("target");
        spec.seed = cli.get_number<std::uint64_t>("seed");
        spec.verify = cli.get_flag("verify");
        spec.scrape = cli.get_flag("scrape");
        spec.dump = cli.get_flag("dump");
        spec.scorer_buffer = cli.get_number<std::size_t>("buffer");
        require(spec.sessions > 0, "--sessions must be positive");
        require(spec.batch > 0, "--batch must be positive");

        // Every --model file is loaded once and addressable as
        // "<name>/<DW>" (plus bare "<name>" and "default" conveniences) —
        // the same names a multi-model adiv_serve registers, so ensemble
        // member lists mean the same thing locally and over the wire.
        std::vector<std::shared_ptr<const SequenceDetector>> models;
        ModelMap model_map;
        if (const std::string paths = cli.get("model"); !paths.empty()) {
            std::size_t pos = 0;
            while (pos <= paths.size()) {
                const std::size_t comma =
                    std::min(paths.find(',', pos), paths.size());
                const std::string path = paths.substr(pos, comma - pos);
                require(!path.empty(), "--model has an empty path");
                const std::shared_ptr<const SequenceDetector> loaded =
                    load_detector_file(path);
                models.push_back(loaded);
                model_map[loaded->name() + "/" +
                          std::to_string(loaded->window_length())] = loaded;
                model_map.emplace(loaded->name(), loaded);
                if (comma == paths.size()) break;
                pos = comma + 1;
            }
            model_map.emplace("default", models.front());
        }
        require(!spec.verify || !models.empty(), "--verify requires --model");

        const std::string sweep = cli.get("sweep-jobs");
        const std::string sweep_shards = cli.get("sweep-shards");
        const bool sweep_mode = !sweep.empty() || !sweep_shards.empty();
        const auto port = cli.get_number<std::uint16_t>("port");
        require(sweep_mode || port > 0, "--port or --sweep-jobs is required");
        require(cli.get("scrape-http").empty() || !sweep_mode,
                "--scrape-http needs TCP mode (--port)");

        const bool profile = cli.get_flag("profile");
        if (profile) {
            require(profiling_compiled(),
                    "--profile needs an ADIV_PROFILE build (reconfigure with "
                    "-DADIV_PROFILE=ON)");
            require(sweep_mode,
                    "--profile needs sweep mode (--sweep-jobs); profile a "
                    "daemon by starting adiv_serve with --profile");
            set_profiling_enabled(true);
        }
        require(!spec.dump || !sweep_mode || profile,
                "--dump in sweep mode requires --profile (the flight ring "
                "only fills while the server profiles)");
        std::shared_ptr<TraceSink> profile_sink;
        if (const std::string trace = cli.get("profile-trace"); !trace.empty()) {
            require(profile, "--profile-trace requires --profile");
            profile_sink = open_trace_sink(trace);
            set_global_trace_sink(profile_sink);
        }
        std::shared_ptr<TraceSink> request_sink;
        if (const std::string trace = cli.get("trace"); !trace.empty()) {
            require(cli.get("profile-trace").empty(),
                    "--trace and --profile-trace write the same sink; pick "
                    "one");
            spec.trace = true;
            request_sink = open_trace_sink(trace);
            set_global_trace_sink(request_sink);
            // Print the ids up front — they are a pure function of --seed,
            // so a script can pick one and ask traceview for its tree.
            for (std::size_t i = 0; i < spec.sessions; ++i)
                std::printf("session %zu trace=%s\n", i,
                            hex16(session_trace_id(spec.seed, i)).c_str());
        }

        ReplayFn replay;
        if (spec.verify)
            replay = make_replayer(spec.target, model_map, spec.scorer_buffer);
        // Printed only when every session's scores matched the local replay
        // and every counter check passed, so a script can grep for it.
        const auto verified_suffix = [&](const RunResult& result) {
            return spec.verify && result.errors.empty()
                       ? " (verified bit-identical)"
                       : "";
        };
        bool failed = false;
        const auto report_errors = [&](const std::vector<std::string>& errors) {
            for (const auto& error : errors) {
                std::fprintf(stderr, "adiv_loadgen: %s\n", error.c_str());
                failed = true;
            }
        };

        if (sweep_mode) {
            require(!models.empty(), "--sweep-jobs requires --model");
            std::vector<std::size_t> jobs_values = parse_size_list("sweep-jobs", sweep);
            if (jobs_values.empty()) jobs_values.push_back(0);
            std::vector<std::size_t> shard_values =
                parse_size_list("sweep-shards", sweep_shards);
            if (shard_values.empty()) shard_values.push_back(0);
            for (const std::size_t shards : shard_values) {
            for (const std::size_t jobs : jobs_values) {
                serve::ServerConfig config;
                config.jobs = jobs;
                config.shards = shards;
                config.queue_capacity = cli.get_number<std::size_t>("queue");
                config.scorer_buffer = spec.scorer_buffer;
                config.flight_capacity = cli.get_number<std::size_t>("flight");
                config.profile_sample_every =
                    cli.get_number<std::uint64_t>("profile-sample");
                // Each profiled point gets a clean registry so its captured
                // digest covers exactly this shards x jobs point; the
                // wait-site instruments live in the same registry and reset
                // with it.
                if (profile) global_metrics().reset();
                serve::Server server(config);
                for (const auto& m : models)
                    server.add_model(
                        m->name() + "/" + std::to_string(m->window_length()),
                        m);
                if (spec.target != "default" &&
                    !fusion::is_ensemble_spec(spec.target))
                    server.add_model(spec.target, models.front());
                const std::size_t shards_resolved = server.shard_count();
                const RunResult result =
                    run_load(spec, replay, [&](std::size_t) {
                        auto [client_end, server_end] = serve::make_loopback_pair();
                        require(server.attach(std::move(server_end)),
                                "server refused connection");
                        return std::move(client_end);
                    });
                server.shutdown();
                std::printf("shards %zu, jobs %zu (%zu workers): %zu events "
                            "in %.2fs — %.0f events/s, %llu alarms%s\n",
                            shards_resolved, jobs, resolve_jobs(jobs),
                            result.total_events, result.seconds,
                            result.events_per_sec(),
                            static_cast<unsigned long long>(result.total_alarms),
                            verified_suffix(result));
                print_latency_summary(result);
                if (profile) {
                    const ProfilePoint prof = capture_profile_point();
                    if (profile_sink && profile_sink->enabled())
                        global_wait_sites().write_jsonl(*profile_sink);
                    std::printf("  profile: stage samples=%llu, dominant wait "
                                "site: %s\n",
                                static_cast<unsigned long long>(
                                    prof.stage_samples),
                                prof.dominant_site.empty()
                                    ? "(none contended)"
                                    : prof.dominant_site.c_str());
                }
                report_errors(result.errors);
            }
            }
        } else {
            const std::string host = cli.get("host");
            const RunResult result = run_load(spec, replay, [&](std::size_t) {
                return serve::tcp_connect(host, port);
            });
            std::printf("%zu session(s) x %zu events: %zu events in %.2fs — "
                        "%.0f events/s, %llu alarms%s\n",
                        spec.sessions, spec.events_per_session,
                        result.total_events, result.seconds,
                        result.events_per_sec(),
                        static_cast<unsigned long long>(result.total_alarms),
                        verified_suffix(result));
            print_latency_summary(result);
            report_errors(result.errors);
            if (!cli.get("scrape-http").empty()) {
                const auto scrape_port = cli.get_number<std::uint16_t>("scrape-http");
                const std::vector<std::string> http_errors =
                    scrape_http_check(host, scrape_port);
                report_errors(http_errors);
                if (http_errors.empty())
                    std::printf("GET /metrics on port %u: valid OpenMetrics\n",
                                static_cast<unsigned>(scrape_port));
            }
        }
        return failed ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adiv_loadgen: %s\n", e.what());
        return 1;
    }
}
