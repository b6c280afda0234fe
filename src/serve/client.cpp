#include "serve/client.hpp"

#include <optional>
#include <string_view>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace adiv::serve {

Client::Client(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {
    require(transport_ != nullptr, "client needs a transport");
}

void Client::set_trace(std::uint64_t trace_id) noexcept {
    trace_id_ = trace_id;
    request_index_ = 0;
    last_span_id_ = 0;
}

void Client::stamp_trace(Request& request) noexcept {
    if (trace_id_ == 0) return;
    // The request span is a root (parent 0); its id depends only on the
    // trace id and the request's ordinal, so a --verify replay re-mints the
    // identical ids.
    request.trace_id = trace_id_;
    request.span_id = derive_span_id(trace_id_, 0, request_index_++);
    last_span_id_ = request.span_id;
}

Request& Client::fresh_request(RequestType type) noexcept {
    request_.type = type;
    request_.target.clear();
    request_.events.clear();
    request_.trace_id = 0;
    request_.span_id = 0;
    return request_;
}

const Response& Client::exchange(const Request& request) {
    // Every buffer is a member reused across calls and the reply is parsed
    // straight out of the decoder, so a steady-state exchange allocates
    // nothing. Failure messages are built only on the throw path.
    serialize_into(request, payload_);
    encode_frame_into(payload_, frame_);
    transport_->write_all(frame_.data(), frame_.size());
    const std::optional<std::string_view> reply =
        read_frame_view(*transport_, decoder_);
    if (!reply) throw DataError("server closed the connection");
    parse_response_into(*reply, response_);
    return response_;
}

Response Client::call(const Request& request) { return exchange(request); }

const Response& Client::checked(const Request& request, ResponseType expected,
                                const char* verb) {
    const Response& response = exchange(request);
    if (response.type == ResponseType::Error)
        throw ServeError("server error: " + response.message);
    if (response.type != expected)
        throw DataError(std::string("unexpected response to ") + verb);
    return response;
}

OpenInfo Client::open(const std::string& target) {
    Request& request = fresh_request(RequestType::Open);
    request.target = target;
    stamp_trace(request);
    std::optional<TraceSpan> span;
    if (request.trace_id != 0)
        span.emplace("serve.client_open",
                     TraceContext{request.trace_id, request.span_id});
    const Response& response = checked(request, ResponseType::Opened, "OPEN");
    return OpenInfo{response.session_id, response.detector, response.window,
                    response.alphabet};
}

std::vector<double> Client::push(SymbolView events) {
    Request& request = fresh_request(RequestType::Push);
    request.events.assign(events.begin(), events.end());
    stamp_trace(request);
    std::optional<TraceSpan> span;
    if (request.trace_id != 0)
        span.emplace("serve.client_push",
                     TraceContext{request.trace_id, request.span_id});
    // The returned copy is the call's one allocation.
    return checked(request, ResponseType::Scores, "PUSH").scores;
}

Response Client::stats() {
    return checked(fresh_request(RequestType::Stats), ResponseType::Stats, "STATS");
}

std::string Client::metrics() {
    return checked(fresh_request(RequestType::Metrics), ResponseType::Metrics,
                   "METRICS")
        .exposition;
}

SessionCounts Client::drain() {
    return checked(fresh_request(RequestType::Drain), ResponseType::Drained, "DRAIN")
        .counts;
}

std::string Client::dump() {
    return checked(fresh_request(RequestType::Dump), ResponseType::Dumped, "DUMP")
        .exposition;
}

SessionCounts Client::close_session() {
    return checked(fresh_request(RequestType::Close), ResponseType::Closed, "CLOSE")
        .counts;
}

void Client::disconnect() { transport_->close(); }

}  // namespace adiv::serve
