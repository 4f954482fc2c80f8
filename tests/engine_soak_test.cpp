// Engine loopback soak: 500 concurrent vtp::sessions from legacy
// udp_host clients into a 4-shard engine::server, mixed full/partial
// streams, every full-reliability byte verified at the server, clean
// close and reap. Runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "api/session.hpp"
#include "engine/server.hpp"
#include "net/udp_host.hpp"
#include "util/pattern.hpp"

namespace {

using namespace vtp;
using util::milliseconds;

constexpr std::uint16_t engine_port = 42050;
constexpr std::uint16_t client_port_base = 42100;
constexpr int n_sessions = 500;
constexpr int sessions_per_host = 50;
constexpr std::uint64_t full_bytes = 12'000;  // stream 0 of even flows
constexpr std::uint64_t split_bytes = 6'000;  // each stream of odd flows

bool sockets_available() {
    try {
        net::event_loop probe_loop;
        net::udp_host probe(probe_loop, 39998);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

TEST(engine_soak_test, five_hundred_sessions_across_shards) {
    if (!sockets_available()) GTEST_SKIP() << "no socket support in sandbox";

    engine::engine_config cfg;
    cfg.port = engine_port;
    cfg.shards = 4;
    cfg.reap_interval = milliseconds(200);
    cfg.rng_seed = 7;
    engine::server srv(cfg);
    srv.set_on_session([](std::size_t, vtp::session& s) {
        const std::uint32_t flow = s.flow_id();
        ASSERT_GE(flow, 1u);
        ASSERT_LE(flow, static_cast<std::uint32_t>(n_sessions));
    });
    srv.start();

    // Server-side delivered-byte accounting, drained from the engine's
    // event export on this thread: every readable event carries its
    // payload chunk, checked against the client's pattern.
    std::array<std::uint64_t, n_sessions + 1> s0_delivered{};
    std::array<std::uint64_t, n_sessions + 1> s1_delivered{};
    std::uint64_t mismatched = 0;
    std::vector<engine::engine_event> evs(512);
    const auto drain = [&] {
        while (const std::size_t n = srv.poll_events(evs.data(), evs.size())) {
            for (std::size_t i = 0; i < n; ++i) {
                const engine::engine_event& e = evs[i];
                if (e.ev.type != qtp::event_type::readable || e.flow < 1 ||
                    e.flow > static_cast<std::uint32_t>(n_sessions))
                    continue;
                auto& counters = e.ev.stream_id == 0 ? s0_delivered : s1_delivered;
                counters[e.flow] += e.payload.size();
                for (std::size_t k = 0; k < e.payload.size(); ++k)
                    if (e.payload[k] !=
                        util::pattern_byte(e.flow, e.ev.stream_id, e.ev.offset + k))
                        ++mismatched;
            }
        }
    };
    const auto send_pattern = [](vtp::session& s, std::uint32_t sid, std::uint64_t n) {
        s.send(sid, std::span<const std::uint8_t>(util::pattern_buffer(s.flow_id(), sid, n)));
    };

    // Clients: 10 legacy udp_hosts on one event loop, 50 sessions each.
    net::event_loop loop;
    std::vector<std::unique_ptr<net::udp_host>> hosts;
    for (int h = 0; h < n_sessions / sessions_per_host; ++h)
        hosts.push_back(std::make_unique<net::udp_host>(
            loop, static_cast<std::uint16_t>(client_port_base + h), 100 + h));

    std::vector<vtp::session> sessions;
    sessions.reserve(n_sessions);
    for (int i = 1; i <= n_sessions; ++i) {
        net::udp_host& host = *hosts[static_cast<std::size_t>(i - 1) / sessions_per_host];
        session_options opts = session_options::reliable();
        opts.flow_id = static_cast<std::uint32_t>(i);
        opts.packet_size = 600;
        vtp::session s = vtp::session::connect(host, engine_port, opts);
        if (i % 2 == 0) {
            send_pattern(s, 0, full_bytes);
        } else {
            send_pattern(s, 0, split_bytes); // stream 0, full reliability
            stream::stream_options partial;
            partial.reliability = sack::reliability_mode::partial;
            partial.message_size = 500;
            partial.message_deadline = milliseconds(250);
            const std::uint32_t sid = s.open_stream(partial);
            ASSERT_NE(sid, stream::invalid_stream);
            send_pattern(s, sid, split_bytes);
            s.finish(sid);
        }
        s.close();
        sessions.push_back(std::move(s));
    }

    // Drive the client side until every session's FIN is acknowledged.
    bool all_closed = false;
    for (int rounds = 0; rounds < 1800 && !all_closed; ++rounds) {
        loop.run(milliseconds(50));
        drain();
        all_closed = true;
        for (const auto& s : sessions)
            if (!s.closed()) {
                all_closed = false;
                break;
            }
    }
    ASSERT_TRUE(all_closed) << "sessions left open after 90s";
    drain();

    // Every full-reliability byte arrived, exactly once and intact, at
    // the server.
    EXPECT_EQ(mismatched, 0u);
    for (int i = 1; i <= n_sessions; ++i) {
        const std::uint64_t expect_s0 = i % 2 == 0 ? full_bytes : split_bytes;
        EXPECT_EQ(s0_delivered[static_cast<std::size_t>(i)], expect_s0) << "flow " << i;
        if (i % 2 == 1) {
            EXPECT_LE(s1_delivered[static_cast<std::size_t>(i)], split_bytes)
                << "flow " << i;
        }
    }

    // The engine accepted each flow exactly once, spread across shards,
    // with a clean datapath.
    engine::engine_stats stats = srv.stats();
    EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(n_sessions));
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.pool_exhausted, 0u);
    for (const engine::shard_stats& ss : srv.per_shard_stats())
        EXPECT_GT(ss.accepted, 0u) << "idle shard: flow hash not spreading";

    // Reap: with all peers closed, the per-shard reapers drain the
    // session tables to zero.
    for (int rounds = 0; rounds < 200 && srv.stats().sessions != 0; ++rounds)
        loop.run(milliseconds(50));
    EXPECT_EQ(srv.stats().sessions, 0u);

    srv.stop();
}

} // namespace
