#include "serve/protocol.hpp"

#include <cctype>
#include <charconv>
#include <utility>

#include "obs/trace.hpp"  // hex16 / parse_hex16 for the trace= token
#include "util/error.hpp"
#include "util/parse_number.hpp"

namespace adiv::serve {

std::string encode_frame(std::string_view payload) {
    std::string frame;
    encode_frame_into(payload, frame);
    return frame;
}

void encode_frame_into(std::string_view payload, std::string& frame) {
    ADIV_REQUIRE(payload.size() <= kMaxFramePayload, "frame payload too large");
    frame.clear();
    char digits[20];
    const auto [end, ec] =
        std::to_chars(digits, digits + sizeof digits, payload.size());
    ADIV_ASSERT(ec == std::errc());
    frame.append(digits, static_cast<std::size_t>(end - digits));
    frame += ' ';
    frame += payload;
}

void FrameDecoder::feed(std::string_view bytes) {
    if (pos_ > 0) {
        buffer_.erase(0, pos_);
        pos_ = 0;
    }
    buffer_.append(bytes);
}

std::optional<std::string_view> FrameDecoder::next_view() {
    const std::size_t avail = buffer_.size() - pos_;
    if (avail == 0) return std::nullopt;
    const std::string_view rest{buffer_.data() + pos_, avail};
    // Every frame passes these checks, so their messages are built only on
    // the throw path.
    if (std::isdigit(static_cast<unsigned char>(rest[0])) == 0)
        throw DataError("malformed frame: length prefix is not a number");
    const std::size_t sep = rest.find(' ');
    // The longest valid prefix announces kMaxFramePayload (7 digits); a run
    // of digits longer than that can never become a valid frame.
    if (sep == std::string_view::npos) {
        require_data(rest.size() <= 8, "malformed frame: unterminated length prefix");
        return std::nullopt;
    }
    const std::optional<std::size_t> length =
        parse_number<std::size_t>(rest.substr(0, sep));
    if (!length) throw DataError("malformed frame: length prefix is not a number");
    if (*length > kMaxFramePayload)
        throw DataError("malformed frame: payload too large");
    if (avail - sep - 1 < *length) return std::nullopt;
    ADIV_ASSERT(pos_ + sep + 1 + *length <= buffer_.size());
    pos_ += sep + 1 + *length;
    return rest.substr(sep + 1, *length);
}

std::optional<std::string> FrameDecoder::next() {
    if (const auto payload = next_view()) return std::string(*payload);
    return std::nullopt;
}

namespace {

constexpr std::string_view kOpen = "OPEN";
constexpr std::string_view kPush = "PUSH";
constexpr std::string_view kStats = "STATS";
constexpr std::string_view kMetrics = "METRICS";
constexpr std::string_view kDrain = "DRAIN";
constexpr std::string_view kDump = "DUMP";
constexpr std::string_view kClose = "CLOSE";
constexpr std::string_view kOpened = "OPENED";
constexpr std::string_view kScores = "SCORES";
constexpr std::string_view kDrained = "DRAINED";
constexpr std::string_view kDumped = "DUMPED";
constexpr std::string_view kClosed = "CLOSED";
constexpr std::string_view kErr = "ERR";

void append_u64(std::string& out, std::uint64_t value) {
    char digits[20];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
    ADIV_ASSERT(ec == std::errc());
    out.append(digits, static_cast<std::size_t>(end - digits));
}

void append_double(std::string& out, double value) {
    // %.17g semantics, matching text_serial's write_double (iostream default
    // float format at precision 17) byte for byte — the wire stays
    // round-trip exact and bit-identical to the stream-based serializer.
    char digits[32];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value,
                                         std::chars_format::general, 17);
    ADIV_ASSERT(ec == std::errc());
    out.append(digits, static_cast<std::size_t>(end - digits));
}

constexpr std::string_view kTracePrefix = "trace=";

void append_trace(std::string& out, const Request& request) {
    if (request.trace_id == 0) return;
    out += ' ';
    out += kTracePrefix;
    out += hex16(request.trace_id);
    out += ':';
    out += hex16(request.span_id);
}

/// Parses a `trace=<hex>:<hex>` token into the request; false when the
/// token is not a trace context (callers then report their own error).
bool try_parse_trace(std::string_view token, Request& request) noexcept {
    if (token.substr(0, kTracePrefix.size()) != kTracePrefix) return false;
    const std::string_view body = token.substr(kTracePrefix.size());
    const std::size_t colon = body.find(':');
    if (colon == std::string_view::npos) return false;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    if (!parse_hex16(body.substr(0, colon), trace)) return false;
    if (!parse_hex16(body.substr(colon + 1), span)) return false;
    request.trace_id = trace;
    request.span_id = span;
    return true;
}

constexpr bool is_record_space(char c) noexcept {
    // The characters std::isspace accepts in the C locale.
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

std::string_view take_token(std::string_view payload, std::size_t& at) noexcept {
    while (at < payload.size() && is_record_space(payload[at])) ++at;
    const std::size_t start = at;
    while (at < payload.size() && !is_record_space(payload[at])) ++at;
    return payload.substr(start, at - start);
}

/// Throws unless only whitespace remains after `at`.
void require_done(std::string_view payload, std::size_t at,
                  std::string_view verb) {
    if (!take_token(payload, at).empty())
        throw DataError("trailing junk after " + std::string(verb));
}

/// The next token as a `T`; `what` names the field in the error.
template <class T>
T take_number(std::string_view payload, std::size_t& at, std::string_view verb,
              const char* what) {
    const std::string_view token = take_token(payload, at);
    if (const std::optional<T> value = parse_number<T>(token)) return *value;
    throw DataError(std::string(verb) + " " + what + " '" + std::string(token) +
                    "' is not a number");
}

/// The request verbs that carry no fields, parsed and serialized alike.
constexpr std::pair<std::string_view, RequestType> kBareRequests[] = {
    {kStats, RequestType::Stats}, {kMetrics, RequestType::Metrics},
    {kDrain, RequestType::Drain}, {kDump, RequestType::Dump},
    {kClose, RequestType::Close}};

}  // namespace

void serialize_into(const Request& request, std::string& payload) {
    payload.clear();
    switch (request.type) {
        case RequestType::Open:
            if (request.target.empty() ||
                request.target.find_first_of(" \t\n\r") != std::string_view::npos)
                throw InvalidArgument("OPEN target must be a single non-empty token");
            payload += kOpen;
            payload += ' ';
            payload += request.target;
            append_trace(payload, request);
            return;
        case RequestType::Push:
            if (request.events.empty())
                throw InvalidArgument("PUSH needs at least one event");
            payload += kPush;
            for (const Symbol event : request.events) {
                payload += ' ';
                append_u64(payload, event);
            }
            append_trace(payload, request);
            return;
        case RequestType::Stats:
        case RequestType::Metrics:
        case RequestType::Drain:
        case RequestType::Dump:
        case RequestType::Close:
            for (const auto& [name, type] : kBareRequests)
                if (type == request.type) payload += name;
            return;
    }
    throw InvalidArgument("unknown request type");
}

std::string serialize(const Request& request) {
    std::string payload;
    serialize_into(request, payload);
    return payload;
}

void serialize_into(const Response& response, std::string& payload) {
    payload.clear();
    switch (response.type) {
        case ResponseType::Opened:
            payload += kOpened;
            payload += ' ';
            append_u64(payload, response.session_id);
            payload += ' ';
            payload += response.detector;
            payload += ' ';
            append_u64(payload, response.window);
            payload += ' ';
            append_u64(payload, response.alphabet);
            return;
        case ResponseType::Scores:
            payload += kScores;
            payload += ' ';
            append_u64(payload, response.scores.size());
            for (const double score : response.scores) {
                payload += ' ';
                append_double(payload, score);
            }
            return;
        case ResponseType::Stats:
            payload += kStats;
            payload += ' ';
            append_u64(payload, response.counts.events);
            payload += ' ';
            append_u64(payload, response.counts.windows);
            payload += ' ';
            append_u64(payload, response.counts.alarms);
            payload += ' ';
            append_u64(payload, response.active_sessions);
            return;
        case ResponseType::Metrics:
        case ResponseType::Dumped:
            // The byte count delimits the raw body: it starts after the
            // single space following the count and runs exactly that many
            // bytes (newlines included — the frame length covers them).
            payload += response.type == ResponseType::Metrics ? kMetrics : kDumped;
            payload += ' ';
            append_u64(payload, response.exposition.size());
            payload += ' ';
            payload += response.exposition;
            return;
        case ResponseType::Drained:
        case ResponseType::Closed:
            payload += response.type == ResponseType::Drained ? kDrained : kClosed;
            payload += ' ';
            append_u64(payload, response.counts.events);
            payload += ' ';
            append_u64(payload, response.counts.windows);
            payload += ' ';
            append_u64(payload, response.counts.alarms);
            return;
        case ResponseType::Error:
            payload += kErr;
            payload += ' ';
            payload += response.message;
            return;
    }
    throw InvalidArgument("unknown response type");
}

std::string serialize(const Response& response) {
    std::string payload;
    serialize_into(response, payload);
    return payload;
}

void parse_request_into(std::string_view payload, Request& request) {
    request.target.clear();
    request.events.clear();
    request.trace_id = 0;
    request.span_id = 0;
    std::size_t at = 0;
    const std::string_view verb = take_token(payload, at);
    if (verb == kPush) {
        request.type = RequestType::Push;
        for (;;) {
            const std::string_view token = take_token(payload, at);
            if (token.empty()) break;
            if (const std::optional<Symbol> event = parse_number<Symbol>(token)) {
                request.events.push_back(*event);
                continue;
            }
            // Cold branch: the only non-numeric token PUSH admits is a
            // final trace context — digit-only payloads never get here, so
            // the hot loop stays one parse per event.
            if (try_parse_trace(token, request)) {
                if (!take_token(payload, at).empty())
                    throw DataError("PUSH trace context must be the final token");
                break;
            }
            throw DataError("PUSH event '" + std::string(token) +
                            "' is not a symbol id");
        }
        if (request.events.empty()) throw DataError("PUSH carries no events");
        return;
    }
    if (verb == kOpen) {
        request.type = RequestType::Open;
        const std::string_view target = take_token(payload, at);
        if (target.empty()) throw DataError("OPEN is missing its target");
        request.target = target;
        const std::string_view extra = take_token(payload, at);
        if (!extra.empty() && !try_parse_trace(extra, request))
            throw DataError("trailing junk after OPEN");
        require_done(payload, at, kOpen);
        return;
    }
    for (const auto& [name, type] : kBareRequests) {
        if (verb != name) continue;
        request.type = type;
        require_done(payload, at, verb);
        return;
    }
    if (verb.empty()) throw DataError("empty request");
    throw DataError("unknown request verb '" + std::string(verb) + "'");
}

Request parse_request(std::string_view payload) {
    Request request;
    parse_request_into(payload, request);
    return request;
}

namespace {

// The hot response. A score token is a double in the one number grammar
// (util/parse_number.hpp), so subnormals round-trip and `+`-signed or hex
// tokens, which no server emits, are rejected. Failure messages are built
// only on the throw path.
void parse_scores(std::string_view payload, std::size_t at,
                  std::vector<double>& scores) {
    const auto count = take_number<std::size_t>(payload, at, kScores, "count");
    // Every score takes at least two payload bytes (a separator and a
    // digit), so a larger count is a lie — reject it before reserving.
    if (count > payload.size() / 2)
        throw DataError("SCORES count " + std::to_string(count) +
                        " exceeds what its payload can hold");
    scores.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::string_view token = take_token(payload, at);
        if (token.empty())
            throw DataError("SCORES announces " + std::to_string(count) +
                            " scores but carries " + std::to_string(i));
        const std::optional<double> value = parse_number<double>(token);
        if (!value)
            throw DataError("SCORES score '" + std::string(token) +
                            "' is not a number");
        scores.push_back(*value);
    }
    if (!take_token(payload, at).empty())
        throw DataError("trailing junk after SCORES");
}

/// The METRICS / DUMPED raw-byte field `<nbytes> SP <body>`, parsed off the
/// payload directly because the body embeds spaces and newlines.
std::string_view take_raw_body(std::string_view payload, std::size_t at,
                               std::string_view verb) {
    if (at == payload.size() || payload[at] != ' ')
        throw DataError(std::string(verb) + " is missing its byte count");
    const std::size_t size_end = payload.find(' ', at + 1);
    if (size_end == std::string_view::npos)
        throw DataError(std::string(verb) + " is missing its body");
    const std::optional<std::size_t> nbytes =
        parse_number<std::size_t>(payload.substr(at + 1, size_end - at - 1));
    if (!nbytes)
        throw DataError(std::string(verb) + " byte count is not a number");
    const std::string_view body = payload.substr(size_end + 1);
    if (body.size() != *nbytes)
        throw DataError(std::string(verb) + " byte count disagrees with its body");
    return body;
}

/// The three counters STATS, DRAINED and CLOSED lead with.
void take_counts(std::string_view payload, std::size_t& at,
                 std::string_view verb, SessionCounts& counts) {
    counts.events = take_number<std::uint64_t>(payload, at, verb, "events");
    counts.windows = take_number<std::uint64_t>(payload, at, verb, "windows");
    counts.alarms = take_number<std::uint64_t>(payload, at, verb, "alarms");
}

}  // namespace

void parse_response_into(std::string_view payload, Response& response) {
    response.type = ResponseType::Error;
    response.session_id = 0;
    response.detector.clear();
    response.window = 0;
    response.alphabet = 0;
    response.scores.clear();
    response.counts = {};
    response.active_sessions = 0;
    response.exposition.clear();
    response.message.clear();
    std::size_t at = 0;
    const std::string_view verb = take_token(payload, at);
    if (verb == kScores) {
        response.type = ResponseType::Scores;
        parse_scores(payload, at, response.scores);
        return;
    }
    if (verb == kOpened) {
        response.type = ResponseType::Opened;
        response.session_id =
            take_number<std::uint64_t>(payload, at, verb, "session id");
        const std::string_view detector = take_token(payload, at);
        if (detector.empty()) throw DataError("OPENED is missing its detector");
        response.detector = detector;
        response.window = take_number<std::size_t>(payload, at, verb, "window");
        response.alphabet =
            take_number<std::size_t>(payload, at, verb, "alphabet size");
    } else if (verb == kStats) {
        response.type = ResponseType::Stats;
        take_counts(payload, at, verb, response.counts);
        response.active_sessions =
            take_number<std::size_t>(payload, at, verb, "active sessions");
    } else if (verb == kDrained || verb == kClosed) {
        response.type =
            verb == kDrained ? ResponseType::Drained : ResponseType::Closed;
        take_counts(payload, at, verb, response.counts);
    } else if (verb == kMetrics || verb == kDumped) {
        response.type =
            verb == kMetrics ? ResponseType::Metrics : ResponseType::Dumped;
        response.exposition = take_raw_body(payload, at, verb);
        return;
    } else if (verb == kErr) {
        // The message runs to the end of the payload, verbatim after the
        // one separator space.
        response.type = ResponseType::Error;
        std::string_view message = payload.substr(at);
        if (!message.empty() && message.front() == ' ') message.remove_prefix(1);
        response.message = message;
        return;
    } else {
        throw DataError("unknown response verb '" + std::string(verb) + "'");
    }
    require_done(payload, at, verb);
}

Response parse_response(std::string_view payload) {
    Response response;
    parse_response_into(payload, response);
    return response;
}

Response error_response(std::string message) {
    Response response;
    response.type = ResponseType::Error;
    response.message = std::move(message);
    return response;
}

}  // namespace adiv::serve
