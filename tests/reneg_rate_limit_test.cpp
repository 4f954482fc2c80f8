// Renegotiation storm bound: a per-connection token bucket gates how
// fast inbound reneg proposals are even looked at; denials are counted
// in session_stats::reneg_rate_limited. Off by default. Both roles run
// the same check (qtp::endpoint_core), so the storm is tested at an
// accepted receiver and at a connecting sender.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/server.hpp"
#include "api/session.hpp"
#include "core/connection.hpp"
#include "mock_env.hpp"

namespace {

using namespace vtp;
using namespace vtp::testing;
using util::seconds;

packet::packet syn_for(std::uint32_t flow) {
    packet::handshake_segment syn;
    syn.type = packet::handshake_segment::kind::syn;
    syn.profile_bits = qtp::qtp_default_profile().encode();
    return packet::make_packet(flow, 9, 0, syn);
}

packet::packet reneg_for(std::uint32_t flow, std::uint32_t token) {
    packet::handshake_segment rn;
    rn.type = packet::handshake_segment::kind::reneg;
    rn.profile_bits = qtp::qtp_default_profile().encode();
    rn.token = token;
    return packet::make_packet(flow, 9, 0, rn);
}

TEST(reneg_rate_limit_test, reneg_storm_is_bounded_and_counted) {
    mock_env env;
    server_options opts;
    opts.reneg_rate_bps = 8.0;     // ~1 byte/s: no refill within the test
    opts.reneg_burst_bytes = 60;   // fits ~2 reneg segments
    vtp::server srv(env, opts);

    env.default_agent->on_packet(syn_for(42));
    ASSERT_NE(srv.find(42), nullptr);
    const std::size_t replies_before_storm = env.sent.size();

    for (std::uint32_t i = 0; i < 50; ++i)
        env.attached.at(42)->on_packet(reneg_for(42, 100 + i));

    const session_stats st = srv.find(42)->stats();
    EXPECT_GT(st.reneg_rate_limited, 0u);
    EXPECT_LT(st.reneg_rate_limited, 50u); // the burst allowance got through
    // Denied proposals are dropped before any processing: no reneg-ack
    // (or any other reply) is generated for them.
    EXPECT_LE(env.sent.size() - replies_before_storm,
              50u - st.reneg_rate_limited);
}

std::size_t reneg_acks_sent(const mock_env& env) {
    return static_cast<std::size_t>(
        std::count_if(env.sent.begin(), env.sent.end(), [](const packet::packet& p) {
            const auto* hs = std::get_if<packet::handshake_segment>(p.body.get());
            return hs != nullptr && hs->type == packet::handshake_segment::kind::reneg_ack;
        }));
}

TEST(reneg_rate_limit_test, sender_role_storm_is_bounded_and_counted) {
    mock_env env;
    qtp::connection_config cfg;
    cfg.flow_id = 42;
    cfg.peer_addr = 9;
    cfg.proposal = qtp::qtp_default_profile();
    cfg.reneg_rate_bps = 8.0;   // ~1 byte/s: no refill within the test
    cfg.reneg_burst_bytes = 60; // fits ~2 reneg segments
    env.attach_dynamic(42, std::make_unique<qtp::connection_sender>(cfg));
    auto& tx = static_cast<qtp::connection_sender&>(*env.attached.at(42));

    // The peer answers the SYN: the sender is established.
    packet::handshake_segment syn_ack;
    syn_ack.type = packet::handshake_segment::kind::syn_ack;
    syn_ack.profile_bits = qtp::qtp_default_profile().encode();
    tx.on_packet(packet::make_packet(42, 9, 0, syn_ack));
    ASSERT_TRUE(tx.established());

    for (std::uint32_t i = 0; i < 50; ++i) tx.on_packet(reneg_for(42, 100 + i));

    EXPECT_GT(tx.reneg_rate_limited(), 0u);
    EXPECT_LT(tx.reneg_rate_limited(), 50u); // the burst allowance got through
    // Denied proposals are dropped before any processing: only the
    // admitted ones are answered (and applied).
    EXPECT_EQ(reneg_acks_sent(env), 50u - tx.reneg_rate_limited());
    EXPECT_EQ(tx.renegotiations(), 50u - tx.reneg_rate_limited());
}

TEST(reneg_rate_limit_test, bucket_refills_with_time) {
    mock_env env;
    server_options opts;
    opts.reneg_rate_bps = 8.0 * 30; // 30 bytes/s: one reneg per second
    opts.reneg_burst_bytes = 30;
    vtp::server srv(env, opts);

    env.default_agent->on_packet(syn_for(42));
    for (std::uint32_t i = 0; i < 5; ++i)
        env.attached.at(42)->on_packet(reneg_for(42, 100 + i));
    const std::uint64_t limited = srv.find(42)->stats().reneg_rate_limited;
    EXPECT_GT(limited, 0u);

    env.advance(seconds(2)); // refill
    env.attached.at(42)->on_packet(reneg_for(42, 999));
    EXPECT_EQ(srv.find(42)->stats().reneg_rate_limited, limited);
}

TEST(reneg_rate_limit_test, disabled_by_default) {
    mock_env env;
    vtp::server srv(env, server_options{});

    env.default_agent->on_packet(syn_for(42));
    for (std::uint32_t i = 0; i < 50; ++i)
        env.attached.at(42)->on_packet(reneg_for(42, 100 + i));

    EXPECT_EQ(srv.find(42)->stats().reneg_rate_limited, 0u);
}

} // namespace
