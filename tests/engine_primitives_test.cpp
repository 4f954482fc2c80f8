// Engine building blocks: the flow-id shard mapper, the SPSC handoff
// ring (single- and cross-thread), the transmit buffer pool, the epoll
// reactor, and the allocation-free segment encoder used by the shard
// transmit path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <thread>
#include <vector>

#include "engine/buffer_pool.hpp"
#include "engine/flow_map.hpp"
#include "engine/reactor.hpp"
#include "engine/spsc_queue.hpp"
#include "packet/wire.hpp"
#include "util/time.hpp"

namespace {

using namespace vtp;

// ---------------------------------------------------------------------------
// flow_shard_map
// ---------------------------------------------------------------------------

TEST(flow_map_test, owner_is_stable_and_in_range) {
    engine::flow_shard_map map(7);
    for (std::uint32_t f = 0; f < 10'000; ++f) {
        const std::size_t o = map.owner(f);
        EXPECT_LT(o, 7u);
        EXPECT_EQ(o, map.owner(f)); // pure function of the flow id
    }
    EXPECT_EQ(engine::flow_shard_map(0).shards(), 1u); // 0 clamps to 1
}

TEST(flow_map_test, sequential_ids_spread_evenly) {
    // Auto-assigned session ids are sequential; the multiplicative hash
    // must decorrelate them. Expect every shard within ±15% of fair
    // share over 80k consecutive ids.
    constexpr std::size_t shards = 8;
    constexpr std::uint32_t n = 80'000;
    engine::flow_shard_map map(shards);
    std::vector<std::uint32_t> count(shards, 0);
    for (std::uint32_t f = 1; f <= n; ++f) ++count[map.owner(f)];
    const double fair = static_cast<double>(n) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_GT(count[s], fair * 0.85) << "shard " << s;
        EXPECT_LT(count[s], fair * 1.15) << "shard " << s;
    }
}

TEST(flow_map_test, every_shard_agrees_on_ownership) {
    // The mapping must be identical no matter which shard computes it —
    // that is what makes handoff correct.
    engine::flow_shard_map a(5), b(5);
    for (std::uint32_t f = 0; f < 1000; ++f) EXPECT_EQ(a.owner(f), b.owner(f));
}

// ---------------------------------------------------------------------------
// spsc_queue
// ---------------------------------------------------------------------------

TEST(spsc_queue_test, fifo_and_capacity) {
    engine::spsc_queue<int> q(5); // rounds up to 8
    EXPECT_EQ(q.capacity(), 8u);
    for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.push(int{i}));
    EXPECT_FALSE(q.push(99)); // full ring rejects
    int v = -1;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(q.pop(v)); // empty
}

TEST(spsc_queue_test, cross_thread_transfer_preserves_order) {
    engine::spsc_queue<std::uint64_t> q(256);
    constexpr std::uint64_t n = 200'000;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < n;) {
            if (q.push(std::uint64_t{i}))
                ++i;
            else
                std::this_thread::yield();
        }
    });
    std::uint64_t expect = 0;
    while (expect < n) {
        std::uint64_t v = 0;
        if (q.pop(v)) {
            ASSERT_EQ(v, expect);
            ++expect;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------------
// buffer_pool
// ---------------------------------------------------------------------------

TEST(buffer_pool_test, acquire_release_cycle) {
    engine::buffer_pool pool(4, 128);
    EXPECT_EQ(pool.capacity(), 4u);
    std::vector<std::uint8_t*> bufs;
    for (int i = 0; i < 4; ++i) {
        std::uint8_t* b = pool.acquire();
        ASSERT_NE(b, nullptr);
        for (std::uint8_t* other : bufs) EXPECT_NE(b, other);
        bufs.push_back(b);
    }
    EXPECT_EQ(pool.acquire(), nullptr); // exhausted, no allocation
    EXPECT_EQ(pool.available(), 0u);
    for (std::uint8_t* b : bufs) pool.release(b);
    EXPECT_EQ(pool.available(), 4u);
    EXPECT_NE(pool.acquire(), nullptr);
}

// ---------------------------------------------------------------------------
// reactor
// ---------------------------------------------------------------------------

TEST(reactor_test, dispatches_readable_fd_and_respects_remove) {
    engine::reactor r;
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    int hits = 0;
    r.add_fd(fds[0], [&] {
        ++hits;
        char buf[16];
        [[maybe_unused]] auto n = ::read(fds[0], buf, sizeof buf);
    });

    EXPECT_EQ(r.poll_once(0), 0); // nothing readable yet

    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    EXPECT_EQ(r.poll_once(util::milliseconds(100)), 1);
    EXPECT_EQ(hits, 1);

    r.remove_fd(fds[0]);
    ASSERT_EQ(::write(fds[1], "y", 1), 1);
    EXPECT_EQ(r.poll_once(0), 0); // no handler left
    EXPECT_EQ(hits, 1);

    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// encode_segment_into (the zero-allocation transmit encoder)
// ---------------------------------------------------------------------------

TEST(encode_into_test, matches_vector_encoder_for_every_kind) {
    std::vector<packet::segment> cases;
    packet::data_segment d;
    d.seq = 42;
    d.byte_offset = 1'000'000;
    d.payload_len = 987;
    d.ts = util::milliseconds(5);
    d.end_of_stream = true;
    cases.emplace_back(d);

    packet::data_stream_segment ds;
    ds.seq = 7;
    ds.stream_id = 3;
    ds.stream_offset = 555;
    ds.payload_len = 100;
    ds.reliability = 1;
    cases.emplace_back(ds);

    packet::sack_feedback_segment sf;
    sf.cum_ack = 12;
    sf.blocks = {{14, 20}, {22, 23}};
    sf.x_recv = 1.25e6;
    sf.has_p = true;
    sf.p = 0.01;
    cases.emplace_back(sf);

    packet::handshake_segment hs;
    hs.type = packet::handshake_segment::kind::syn;
    hs.profile_bits = 0x5;
    hs.target_rate_bps = 4e6;
    cases.emplace_back(hs);

    for (const packet::segment& s : cases) {
        const std::vector<std::uint8_t> ref = packet::encode_segment(s);
        std::uint8_t buf[2048];
        const std::size_t n = packet::encode_segment_into(s, buf, sizeof buf);
        ASSERT_EQ(n, ref.size());
        EXPECT_EQ(std::vector<std::uint8_t>(buf, buf + n), ref);
        // Round-trips through the decoder like the vector path.
        EXPECT_NO_THROW(packet::decode_segment(buf, n));
    }
}

TEST(encode_into_test, overflow_throws_instead_of_writing_past_end) {
    packet::data_segment d;
    d.payload_len = 1;
    std::uint8_t buf[4];
    EXPECT_THROW(packet::encode_segment_into(packet::segment{d}, buf, sizeof buf),
                 std::length_error);
}

} // namespace
