// Live UDP datapath: the same QTP agents over real loopback sockets.
// Skipped gracefully when the sandbox forbids socket creation.
#include <gtest/gtest.h>

#include <memory>

#include "core/qtp.hpp"
#include "net/udp_host.hpp"

namespace {

using namespace vtp;
using util::milliseconds;

bool sockets_available() {
    try {
        net::event_loop probe_loop;
        net::udp_host probe(probe_loop, 39999);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

TEST(event_loop_test, timers_fire_in_order) {
    net::event_loop loop;
    std::vector<int> order;
    loop.schedule_after(milliseconds(20), [&] { order.push_back(2); });
    loop.schedule_after(milliseconds(5), [&] { order.push_back(1); });
    loop.schedule_after(milliseconds(40), [&] {
        order.push_back(3);
        loop.stop();
    });
    loop.run(milliseconds(500));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(event_loop_test, cancel_prevents_firing) {
    net::event_loop loop;
    bool fired = false;
    const auto id = loop.schedule_after(milliseconds(5), [&] { fired = true; });
    loop.cancel(id);
    loop.run(milliseconds(50));
    EXPECT_FALSE(fired);
}

TEST(event_loop_test, now_is_monotonic) {
    net::event_loop loop;
    const auto t0 = loop.now();
    loop.run(milliseconds(10));
    EXPECT_GE(loop.now(), t0);
}

TEST(live_udp_test, qtp_transfer_over_loopback) {
    if (!sockets_available()) GTEST_SKIP() << "no socket support in sandbox";

    net::event_loop loop;
    net::udp_host sender_host(loop, 40001, 1);
    net::udp_host receiver_host(loop, 40002, 2);

    qtp::connection_config base;
    base.total_bytes = 200'000;
    auto pair = qtp::make_connection(7, 40001, 40002, qtp::qtp_af_profile(0.0),
                                     qtp::capabilities{}, base);
    auto* rx = receiver_host.attach(7, std::move(pair.receiver));
    auto* tx = sender_host.attach(7, std::move(pair.sender));

    // Run up to 20 s wall clock; bail early once complete.
    for (int rounds = 0; rounds < 200 && !tx->transfer_complete(); ++rounds)
        loop.run(milliseconds(100));

    EXPECT_TRUE(tx->transfer_complete());
    EXPECT_TRUE(rx->stream().complete());
    EXPECT_EQ(rx->stream().received_bytes(), 200'000u);
    EXPECT_GT(sender_host.sent_datagrams(), 0u);
    EXPECT_EQ(receiver_host.decode_errors(), 0u);
}

TEST(live_udp_test, light_profile_over_loopback) {
    if (!sockets_available()) GTEST_SKIP() << "no socket support in sandbox";

    net::event_loop loop;
    net::udp_host sender_host(loop, 40003, 3);
    net::udp_host receiver_host(loop, 40004, 4);

    qtp::capabilities light_caps; // no receiver-side estimation
    light_caps.support_receiver_estimation = false;
    auto pair = qtp::make_connection(9, 40003, 40004, qtp::qtp_light_profile(), light_caps);
    receiver_host.attach(9, std::move(pair.receiver));
    auto* tx = sender_host.attach(9, std::move(pair.sender));

    loop.run(milliseconds(1500));
    EXPECT_TRUE(tx->established());
    EXPECT_EQ(tx->active_profile().estimation, tfrc::estimation_mode::sender_side);
    EXPECT_GT(tx->packets_sent(), 0u);
}

} // namespace
