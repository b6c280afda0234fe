// Executable allocation budget for the PUSH round trip's codec.
//
// Builds into adiv_alloc_budget_tests, whose global operator new counts
// calls (support/counting_new.hpp). After one warm-up call sizes the reused
// buffers, every codec step of a steady-state PUSH — request serialization,
// framing, frame decoding, the server's request parse and SCORES parsing —
// must allocate nothing, at the chatty (32-event) and the bulk (512-event)
// frame size alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "support/counting_new.hpp"

namespace adiv::serve {
namespace {

using test::allocations_during;

constexpr std::size_t kFrameSizes[] = {32, 512};

Request push_request(std::size_t events) {
    Request request;
    request.type = RequestType::Push;
    for (std::size_t i = 0; i < events; ++i)
        request.events.push_back(static_cast<Symbol>(i * 2654435761u % 1000));
    return request;
}

/// A SCORES payload of `windows` 19-character `1/3` tokens, the widest a
/// 17-digit score gets short of an exponent.
std::string scores_payload(std::size_t windows) {
    Response response;
    response.type = ResponseType::Scores;
    response.scores.assign(windows, 1.0 / 3);
    return serialize(response);
}

TEST(ClientCodecAllocBudget, SerializePushRequestAllocatesNothing) {
    for (const std::size_t n : kFrameSizes) {
        const Request request = push_request(n);
        std::string payload;
        serialize_into(request, payload);  // warm-up
        EXPECT_EQ(allocations_during([&] { serialize_into(request, payload); }), 0u)
            << n << " events";
    }
}

TEST(ClientCodecAllocBudget, EncodeFrameAllocatesNothing) {
    for (const std::size_t n : kFrameSizes) {
        const std::string payload = serialize(push_request(n));
        std::string frame;
        encode_frame_into(payload, frame);  // warm-up
        EXPECT_EQ(allocations_during([&] { encode_frame_into(payload, frame); }), 0u)
            << n << " events";
    }
}

TEST(ClientCodecAllocBudget, DecodeFrameViewAllocatesNothing) {
    for (const std::size_t n : kFrameSizes) {
        const std::string frame = encode_frame(scores_payload(n));
        FrameDecoder decoder;
        std::size_t decoded = 0;
        const auto round = [&] {
            decoder.feed(frame);
            if (const std::optional<std::string_view> view = decoder.next_view())
                decoded += view->size();
        };
        round();  // warm-up
        EXPECT_EQ(allocations_during(round), 0u) << n << " events";
        EXPECT_EQ(decoded, 2 * (frame.size() - frame.find(' ') - 1));
    }
}

TEST(ServerCodecAllocBudget, ParsePushRequestAllocatesNothing) {
    for (const std::size_t n : kFrameSizes) {
        Request untraced = push_request(n);
        Request traced = untraced;
        traced.trace_id = 0xdeadbeef01234567ULL;
        traced.span_id = 0x0123456789abcdefULL;
        for (const Request* sent : {&untraced, &traced}) {
            const std::string payload = serialize(*sent);
            Request request;
            parse_request_into(payload, request);  // warm-up
            EXPECT_EQ(allocations_during([&] { parse_request_into(payload, request); }),
                      0u)
                << n << " events, trace id " << sent->trace_id;
            EXPECT_EQ(request.events, sent->events);
            EXPECT_EQ(request.trace_id, sent->trace_id);
        }
    }
}

TEST(ClientCodecAllocBudget, ParseScoresAllocatesNothing) {
    for (const std::size_t n : kFrameSizes) {
        const std::string payload = scores_payload(n);
        Response response;
        parse_response_into(payload, response);  // warm-up
        EXPECT_EQ(allocations_during([&] { parse_response_into(payload, response); }),
                  0u)
            << n << " events";
        ASSERT_EQ(response.scores.size(), n);
        EXPECT_EQ(response.scores.back(), 1.0 / 3);
    }
}

TEST(ClientCodecAllocBudget, SteadyStatePushAllocatesOnlyItsResult) {
    // No server: the test plays the daemon's end itself, queueing each SCORES
    // reply before the push that reads it, so every counted allocation is
    // the client's.
    for (const std::size_t n : kFrameSizes) {
        auto [client_end, server_end] = make_loopback_pair();
        Client client(std::move(client_end));
        const Request request = push_request(n);
        const std::string reply = encode_frame(scores_payload(n));
        FrameDecoder server_decoder;
        const auto round = [&] {
            server_end->write_all(reply.data(), reply.size());
            std::vector<double> scores;
            const std::uint64_t allocations = allocations_during(
                [&] { scores = client.push({request.events.data(), n}); });
            EXPECT_EQ(scores.size(), n);
            const auto sent = read_frame_view(*server_end, server_decoder);
            EXPECT_EQ(sent.value_or(""), serialize(request));
            return allocations;
        };
        (void)round();  // warm-up
        EXPECT_EQ(round(), 1u) << n << " events";
    }
}

}  // namespace
}  // namespace adiv::serve
