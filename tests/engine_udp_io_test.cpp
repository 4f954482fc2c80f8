// The engine datagram path on real loopback sockets: send_batch's UDP
// GSO runs come back out of recv_batch on GRO sockets byte-exact and in
// order, a same-flow run travels as one coalesced receive, and a live
// 4-shard engine's steering program delivers every flow to its owner
// shard's socket, so nothing crosses the handoff rings.
// Skipped gracefully where socket creation is forbidden.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "engine/flow_map.hpp"
#include "engine/server.hpp"
#include "engine/udp_io.hpp"
#include "packet/wire.hpp"

namespace {

using namespace vtp;

constexpr std::uint16_t steering_port = 48761;

std::uint16_t bound_port(int fd) {
    sockaddr_in a{};
    socklen_t len = sizeof a;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len);
    return ntohs(a.sin_port);
}

/// [flow:u32][seq:u32] then a seq-dependent pattern, `len` bytes total.
std::vector<std::uint8_t> make_dgram(std::uint32_t flow, std::uint32_t seq,
                                     std::size_t len) {
    std::vector<std::uint8_t> d(len);
    for (int i = 0; i < 4; ++i) {
        d[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(flow >> (24 - 8 * i));
        d[static_cast<std::size_t>(4 + i)] = static_cast<std::uint8_t>(seq >> (24 - 8 * i));
    }
    for (std::size_t i = 8; i < len; ++i)
        d[i] = static_cast<std::uint8_t>(seq * 31 + i * 7);
    return d;
}

/// Receive from `fd` until `want` datagrams arrived or 2 s passed.
std::vector<std::vector<std::uint8_t>> receive(int fd, engine::rx_batch& rx,
                                               std::size_t want) {
    std::vector<std::vector<std::uint8_t>> got;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (got.size() < want && std::chrono::steady_clock::now() < deadline) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 50) <= 0) continue;
        const std::size_t n = engine::recv_batch(fd, rx);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_FALSE(rx.truncated(i));
            got.emplace_back(rx.data(i), rx.data(i) + rx.len(i));
        }
    }
    return got;
}

struct sockets {
    int tx = -1, rx1 = -1, rx2 = -1;
    ~sockets() {
        for (const int fd : {tx, rx1, rx2})
            if (fd >= 0) ::close(fd);
    }
};

TEST(udp_io_test, gso_runs_round_trip_through_gro_byte_exact_and_in_order) {
    sockets s;
    try {
        s.tx = engine::open_udp_socket(0, false, 1 << 21, 1 << 21);
        s.rx1 = engine::open_udp_socket(0, false, 1 << 21, 1 << 21);
        s.rx2 = engine::open_udp_socket(0, false, 1 << 21, 1 << 21);
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot open sockets: " << e.what();
    }
#if defined(__linux__)
    ASSERT_TRUE(engine::enable_udp_gro(s.rx1));
    ASSERT_TRUE(engine::enable_udp_gro(s.rx2));
#endif
    const sockaddr_in dst1 = engine::loopback_addr(bound_port(s.rx1));
    const sockaddr_in dst2 = engine::loopback_addr(bound_port(s.rx2));

    // Two flows, two segment sizes, short tails, two destinations, and
    // one run longer than the 64-segment GSO limit.
    struct spec {
        std::uint32_t flow;
        std::size_t len;
        int count;
        const sockaddr_in* to;
    };
    const spec plan[] = {
        {0xA, 1000, 5, &dst1}, {0xA, 700, 1, &dst1},  {0xB, 300, 4, &dst1},
        {0xA, 1000, 3, &dst2}, {0xB, 300, 2, &dst2},  {0xA, 300, 1, &dst1},
        {0xB, 1000, 70, &dst2}, {0xB, 120, 1, &dst2}, {0xA, 1000, 2, &dst1},
    };
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<const sockaddr_in*> dests;
    std::uint32_t seq = 0;
    for (const spec& p : plan)
        for (int i = 0; i < p.count; ++i) {
            bytes.push_back(make_dgram(p.flow, seq++, p.len));
            dests.push_back(p.to);
        }
    std::vector<engine::tx_item> items;
    std::vector<std::vector<std::uint8_t>> want1, want2;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        items.push_back(engine::tx_item{bytes[i].data(), bytes[i].size(), *dests[i]});
        (dests[i] == &dst1 ? want1 : want2).push_back(bytes[i]);
    }

    ASSERT_EQ(engine::send_batch(s.tx, items.data(), items.size()), items.size());

    engine::rx_batch rx(engine::gro_batch_slots, engine::gro_slot_bytes);
    EXPECT_EQ(receive(s.rx1, rx, want1.size()), want1);
    EXPECT_EQ(receive(s.rx2, rx, want2.size()), want2);
}

TEST(udp_io_test, same_flow_run_arrives_as_one_coalesced_receive) {
#if !defined(__linux__)
    GTEST_SKIP() << "UDP GSO/GRO is Linux-only";
#else
    sockets s;
    try {
        s.tx = engine::open_udp_socket(0, false, 1 << 21, 1 << 21);
        s.rx1 = engine::open_udp_socket(0, false, 1 << 21, 1 << 21);
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot open sockets: " << e.what();
    }
    ASSERT_TRUE(engine::enable_udp_gro(s.rx1));
    const sockaddr_in dst = engine::loopback_addr(bound_port(s.rx1));

    std::vector<std::vector<std::uint8_t>> bytes;
    for (std::uint32_t i = 0; i < 5; ++i) bytes.push_back(make_dgram(7, i, 1200));
    bytes.push_back(make_dgram(7, 5, 333)); // the run's short tail
    std::vector<engine::tx_item> items;
    for (const auto& b : bytes) items.push_back(engine::tx_item{b.data(), b.size(), dst});
    ASSERT_EQ(engine::send_batch(s.tx, items.data(), items.size()), items.size());

    // One receive slot: all six datagrams come out of one call only if
    // they travelled as one super-datagram.
    engine::rx_batch rx(1, engine::gro_slot_bytes);
    pollfd p{s.rx1, POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 2000), 1);
    ASSERT_EQ(engine::recv_batch(s.rx1, rx), bytes.size());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        EXPECT_EQ(std::vector<std::uint8_t>(rx.data(i), rx.data(i) + rx.len(i)), bytes[i]);
        EXPECT_EQ(rx.from(i).sin_port, htons(bound_port(s.tx)));
    }
#endif
}

TEST(engine_steering_test, every_flow_lands_on_its_owner_shard_without_handoff) {
#if !defined(__linux__)
    GTEST_SKIP() << "reuseport cBPF steering is Linux-only";
#else
    engine::engine_config cfg;
    cfg.port = steering_port;
    cfg.shards = 4;
    engine::server eng(cfg);
    try {
        eng.start();
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot start engine: " << e.what();
    }
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    const sockaddr_in target = engine::loopback_addr(steering_port);

    // One empty data segment per flow: a stray for the listener, which
    // ignores it; only where it was received matters here.
    packet::data_segment seg;
    const std::vector<std::uint8_t> body = packet::encode_segment(packet::segment{seg});
    constexpr std::uint32_t flows = 1000;
    const engine::flow_shard_map map(cfg.shards);
    std::vector<std::uint64_t> owned(cfg.shards, 0);
    for (std::uint32_t flow = 1; flow <= flows; ++flow) {
        std::vector<std::uint8_t> d = make_dgram(flow, 0xB000, 8);
        d.insert(d.end(), body.begin(), body.end());
        ::sendto(fd, d.data(), d.size(), 0, reinterpret_cast<const sockaddr*>(&target),
                 sizeof target);
        ++owned[map.owner(flow)];
    }
    ::close(fd);

    std::vector<engine::shard_stats> st;
    for (int i = 0; i < 200; ++i) {
        st = eng.per_shard_stats();
        std::uint64_t rx = 0;
        for (const auto& s : st) rx += s.datagrams_rx;
        if (rx >= flows) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    eng.stop();
    ASSERT_EQ(st.size(), cfg.shards);
    for (std::size_t i = 0; i < st.size(); ++i) {
        EXPECT_EQ(st[i].datagrams_rx, owned[i]) << "shard " << i;
        EXPECT_EQ(st[i].handoff_out, 0u) << "shard " << i;
        EXPECT_EQ(st[i].handoff_dropped, 0u) << "shard " << i;
    }
#endif
}

} // namespace
