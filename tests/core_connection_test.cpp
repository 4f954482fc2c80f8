// Composed QTP connections end-to-end: handshake, reliability modes,
// QoS-aware rate floor, QTPlight placement.
#include <gtest/gtest.h>

#include "diffserv/conditioner.hpp"
#include "diffserv/rio.hpp"
#include "mock_env.hpp"
#include "sim_fixtures.hpp"
#include "util/pattern.hpp"

namespace {

using namespace vtp;
using namespace vtp::testing;
using util::milliseconds;
using util::seconds;

sim::dumbbell_config base_config(std::size_t pairs, double bottleneck_bps = 10e6) {
    sim::dumbbell_config cfg;
    cfg.pairs = pairs;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = bottleneck_bps;
    cfg.bottleneck_delay = milliseconds(20);
    cfg.bottleneck_queue_packets = 60;
    return cfg;
}

TEST(qtp_connection_test, handshake_establishes_and_data_flows) {
    sim::dumbbell net(base_config(1));
    auto flow = add_qtp_flow(net, 0, 1,
                             qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                                  qtp::qtp_default_profile(), {}));
    net.sched().run_until(seconds(20));
    EXPECT_TRUE(flow.sender->established());
    EXPECT_TRUE(flow.receiver->established());
    EXPECT_GT(flow.receiver->received_bytes(), 1'000'000u);
}

TEST(qtp_connection_test, default_profile_fills_bottleneck) {
    sim::dumbbell net(base_config(1));
    auto flow = add_qtp_flow(net, 0, 1,
                             qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                                  qtp::qtp_default_profile(), {}));
    net.sched().run_until(seconds(40));
    const double goodput = goodput_bps(flow.receiver->received_bytes(), seconds(40));
    EXPECT_GT(goodput, 7e6);
}

TEST(qtp_connection_test, full_reliability_transfer_completes_under_loss) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.02, 31));

    qtp::connection_config base;
    base.total_bytes = 2'000'000;
    qtp::connection_pair pair = qtp::make_connection(
        1, net.left_addr(0), net.right_addr(0),
        qtp::qtp_af_profile(0.0), qtp::capabilities{}, base);
    // qos target 0: pure full-reliability TFRC.
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));

    net.sched().run_until(seconds(120));
    EXPECT_TRUE(flow.sender->transfer_complete());
    EXPECT_TRUE(flow.receiver->stream().complete());
    EXPECT_EQ(flow.receiver->stream().received_bytes(), 2'000'000u);
    EXPECT_GT(flow.sender->rtx_bytes_sent(), 0u);
}

TEST(qtp_connection_test, ordered_delivery_under_loss) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.03, 77));

    // Application-driven stream carrying real pattern bytes, so every
    // delivered chunk can be checked for position and content.
    constexpr std::uint64_t total = 500'000;
    qtp::connection_config base;
    base.total_bytes = 0;
    base.stream_open = true;
    auto pair = qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                     qtp::qtp_af_profile(0.0), qtp::capabilities{}, base);
    const std::vector<std::uint8_t> payload = util::pattern_buffer(1, 0, total);
    ASSERT_EQ(pair.sender->offer_bytes(0, payload.data(), payload.size()), total);
    pair.sender->finish_stream();
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));

    std::uint64_t expect_off = 0;
    bool ordered = true;
    bool intact = true;
    std::uint32_t sid = 0;
    stream::ready_chunk chunk;
    while (!flow.sender->closed() && net.sched().now() < seconds(120)) {
        net.sched().run_until(net.sched().now() + milliseconds(100));
        while (flow.receiver->recv_chunk(sid, chunk)) {
            if (sid != 0 || chunk.offset != expect_off) ordered = false;
            for (std::size_t k = 0; k < chunk.bytes.size(); ++k)
                if (chunk.bytes[k] != util::pattern_byte(1, 0, chunk.offset + k))
                    intact = false;
            expect_off = chunk.offset + chunk.bytes.size();
        }
    }
    EXPECT_TRUE(ordered);
    EXPECT_TRUE(intact);
    EXPECT_EQ(expect_off, total);
}

TEST(qtp_connection_test, light_profile_negotiates_sender_estimation) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.02, 13));
    auto flow = add_qtp_flow(
        net, 0, 1,
        qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                             qtp::qtp_light_profile(), light_caps()));
    net.sched().run_until(seconds(30));

    ASSERT_TRUE(flow.sender->established());
    EXPECT_EQ(flow.sender->active_profile().estimation,
              tfrc::estimation_mode::sender_side);
    // The sender, not the receiver, holds the loss history.
    EXPECT_GT(flow.sender->estimator().history().loss_events(), 0u);
    EXPECT_EQ(flow.receiver->history().loss_events(), 0u);
}

TEST(qtp_connection_test, light_receiver_state_is_smaller) {
    // Same lossy run with classic vs light profile: the light receiver
    // keeps materially less per-connection state (E4's memory claim).
    auto run_state_bytes = [](bool light) {
        sim::dumbbell net(base_config(1, 100e6));
        net.forward_bottleneck().set_loss_model(
            std::make_unique<sim::bernoulli_loss>(0.02, 55));
        auto pair = light
                        ? qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                               qtp::qtp_light_profile(), light_caps())
                        : qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                               qtp::qtp_default_profile(), {});
        auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
        net.sched().run_until(seconds(30));
        return flow.receiver->state_bytes();
    };
    EXPECT_LT(run_state_bytes(true), run_state_bytes(false));
}

TEST(qtp_connection_test, qos_floor_holds_rate_in_af_network) {
    // Congested AF bottleneck: competing best-effort QTP flow. The QTPAF
    // flow's committed rate must survive.
    const double target = 4e6;
    sim::dumbbell_config cfg = base_config(2, 10e6);
    cfg.bottleneck_queue = [&] {
        return std::make_unique<diffserv::rio_queue>(
            diffserv::default_rio_params(60, 1050), 2025);
    };
    sim::dumbbell net(cfg);

    diffserv::conditioner cond(net.sched());
    cond.set_profile(1, target, 30'000);
    cond.install(net.left_router());

    auto af_flow = add_qtp_flow(
        net, 0, 1,
        qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                             qtp::qtp_af_profile(target), {}));
    auto be_flow = add_qtp_flow(
        net, 1, 2,
        qtp::make_connection(2, net.left_addr(1), net.right_addr(1),
                             qtp::qtp_default_profile(), {}));

    net.sched().run_until(seconds(60));
    const double af_goodput =
        goodput_bps(af_flow.receiver->received_bytes(), seconds(60));
    EXPECT_GT(af_goodput, 0.9 * target);
    // And the best-effort flow still gets leftovers (no starvation).
    EXPECT_GT(goodput_bps(be_flow.receiver->received_bytes(), seconds(60)), 1e6);
}

TEST(qtp_connection_test, partial_reliability_abandons_expired_messages) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.05, 41));

    qtp::connection_config base;
    base.message_size = 1000;
    base.message_deadline = milliseconds(30); // tighter than the 44ms RTT
    auto pair = qtp::make_connection(
        1, net.left_addr(0), net.right_addr(0),
        qtp::qtp_light_profile(sack::reliability_mode::partial), light_caps(), base);
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
    net.sched().run_until(seconds(30));

    // Losses happen, but retransmitting would always miss the deadline:
    // everything queued must be abandoned, (almost) nothing retransmitted.
    EXPECT_GT(flow.sender->retransmissions().abandoned_ranges(), 0u);
    EXPECT_EQ(flow.sender->rtx_bytes_sent(), 0u);
}

TEST(qtp_connection_test, partial_reliability_retransmits_when_deadline_allows) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.05, 43));

    qtp::connection_config base;
    base.message_size = 1000;
    base.message_deadline = seconds(5); // plenty of slack
    auto pair = qtp::make_connection(
        1, net.left_addr(0), net.right_addr(0),
        qtp::qtp_light_profile(sack::reliability_mode::partial), light_caps(), base);
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
    net.sched().run_until(seconds(30));
    EXPECT_GT(flow.sender->rtx_bytes_sent(), 0u);
}

TEST(qtp_connection_test, handshake_survives_syn_loss) {
    sim::dumbbell net(base_config(1, 100e6));
    // Total blackout for the first 2 s: several SYNs die.
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(1.0, 3));
    auto flow = add_qtp_flow(net, 0, 1,
                             qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                                  qtp::qtp_default_profile(), {}));
    net.sched().at(seconds(2), [&net] {
        net.forward_bottleneck().set_loss_model(std::make_unique<sim::no_loss>());
    });
    net.sched().run_until(seconds(20));
    EXPECT_TRUE(flow.sender->established());
    EXPECT_GT(flow.receiver->received_bytes(), 0u);
}

TEST(qtp_connection_test, feedback_overhead_counted) {
    sim::dumbbell net(base_config(1));
    auto flow = add_qtp_flow(net, 0, 1,
                             qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                                  qtp::qtp_default_profile(), {}));
    net.sched().run_until(seconds(10));
    EXPECT_GT(flow.receiver->feedback_sent(), 0u);
    EXPECT_GT(flow.receiver->feedback_bytes(), 0u);
    // Roughly one feedback per RTT (44 ms) over ~10 s => tens, not thousands.
    EXPECT_LT(flow.receiver->feedback_sent(), 2000u);
}

// --- pacing credit: a late slot sends what its rate already earned ----------

/// A sender on a mock substrate with base burst `burst` whose timers all
/// fire `lag` late, handshaken by hand with a receiver on a second mock.
/// No feedback is ever delivered, so the rate sits at the gTFRC floor.
struct paced_sender {
    mock_env tx_env;
    mock_env rx_env;
    qtp::connection_pair pair;

    paced_sender(std::uint32_t burst, util::sim_time lag) {
        qtp::profile p = qtp::qtp_default_profile();
        p.qos_aware = true;
        p.target_rate_bps = 8e6; // 1 MB/s floor
        pair = qtp::make_connection(1, 1, 2, p, {});
        tx_env.burst = burst;
        tx_env.fire_lag = lag;
        pair.sender->start(tx_env);
        pair.receiver->start(rx_env);
        pair.receiver->on_packet(tx_env.sent.back()); // SYN
        pair.sender->on_packet(rx_env.sent.back());   // SYN-ACK: first burst goes out
    }
    double rate() const { return pair.sender->cc().pacing_rate(); }
};

const packet::data_segment* as_data(const packet::packet& pkt) {
    return std::get_if<packet::data_segment>(pkt.body.get());
}

/// Data packets per pacing slot, in order (one slot = one send time).
std::vector<std::size_t> slot_sizes(const mock_env& env) {
    std::vector<std::size_t> slots;
    util::sim_time at = -1;
    for (const packet::packet& pkt : env.sent) {
        if (as_data(pkt) == nullptr) continue;
        if (slots.empty() || pkt.sent_at != at) slots.push_back(0);
        at = pkt.sent_at;
        ++slots.back();
    }
    return slots;
}

TEST(pacing_credit_test, on_time_slot_sends_exactly_the_base_burst) {
    paced_sender s(8, 0);
    ASSERT_TRUE(s.pair.sender->established());
    s.tx_env.advance(seconds(1));
    const std::vector<std::size_t> slots = slot_sizes(s.tx_env);
    ASSERT_GT(slots.size(), 100u); // 1 MB/s in 8-KB slots
    for (std::size_t i = 0; i < slots.size(); ++i) ASSERT_EQ(slots[i], 8u) << "slot " << i;
}

TEST(pacing_credit_test, late_slot_adds_earned_segments_up_to_the_bound) {
    // 2.5 packet times late: each timer-driven slot earns 2 more segments.
    const double packet_s = 1000.0 / 1e6;
    paced_sender late(8, util::from_seconds(2.5 * packet_s));
    ASSERT_DOUBLE_EQ(late.rate(), 1e6);
    late.tx_env.advance(seconds(1));
    std::vector<std::size_t> slots = slot_sizes(late.tx_env);
    ASSERT_GT(slots.size(), 50u);
    EXPECT_EQ(slots[0], 8u); // the establishment slot is a direct call: no credit
    for (std::size_t i = 1; i < slots.size(); ++i) ASSERT_EQ(slots[i], 10u) << "slot " << i;

    // 100 packet times late: the credit caps the slot at the bound.
    paced_sender very_late(8, util::from_seconds(100 * packet_s));
    very_late.tx_env.advance(seconds(1));
    slots = slot_sizes(very_late.tx_env);
    ASSERT_GT(slots.size(), 5u);
    for (std::size_t i = 1; i < slots.size(); ++i)
        ASSERT_EQ(slots[i], qtp::connection_sender::max_slot_bursts * 8) << "slot " << i;
}

TEST(pacing_credit_test, random_lag_never_outruns_the_rate) {
    paced_sender s(8, 0);
    const double rate = s.rate();
    util::rng rng(77);
    for (int step = 0; step < 1000; ++step) {
        s.tx_env.fire_lag = util::microseconds(rng.uniform_int(0, 6000));
        s.tx_env.advance(milliseconds(1));
    }
    ASSERT_DOUBLE_EQ(s.rate(), rate); // no feedback: the floor holds throughout

    std::uint64_t bytes = 0;
    util::sim_time first = -1;
    for (const packet::packet& pkt : s.tx_env.sent) {
        if (const packet::data_segment* d = as_data(pkt)) {
            if (first < 0) first = pkt.sent_at;
            bytes += d->payload_len;
        }
    }
    const double budget = rate * util::to_seconds(s.tx_env.now() - first);
    const double bound = qtp::connection_sender::max_slot_bursts * 8 * 1000.0;
    EXPECT_LE(static_cast<double>(bytes), budget + bound);
    // Without credit every lag would be lost time (~3 ms per 8-ms slot);
    // with it the sender stays close to its rate.
    EXPECT_GT(static_cast<double>(bytes), 0.9 * budget);
}

} // namespace
