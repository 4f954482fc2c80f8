// Traffic source models: rate accuracy, burstiness, measuring sink.
#include <gtest/gtest.h>

#include "app/sources.hpp"
#include "sim_fixtures.hpp"

namespace {

using namespace vtp;
using util::milliseconds;
using util::seconds;

sim::dumbbell_config wide_config(std::size_t pairs = 1) {
    sim::dumbbell_config cfg;
    cfg.pairs = pairs;
    cfg.access_rate_bps = 100e6;
    cfg.bottleneck_rate_bps = 100e6; // uncongested for rate checks
    cfg.bottleneck_delay = milliseconds(10);
    return cfg;
}

TEST(cbr_source_test, rate_is_accurate) {
    sim::dumbbell net(wide_config());
    app::cbr_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = net.right_addr(0);
    cfg.rate_bps = 2e6;
    auto* sink = net.right_host(0).attach(1, std::make_unique<app::sink_agent>());
    net.left_host(0).attach(1, std::make_unique<app::cbr_source>(cfg));
    net.sched().run_until(seconds(10));
    const double rate = sink->bytes() * 8.0 / 10.0;
    EXPECT_NEAR(rate, 2e6, 0.02e6);
}

TEST(cbr_source_test, start_stop_window_respected) {
    sim::dumbbell net(wide_config());
    app::cbr_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = net.right_addr(0);
    cfg.rate_bps = 1e6;
    cfg.start_at = seconds(2);
    cfg.stop_at = seconds(4);
    auto* src = net.left_host(0).attach(1, std::make_unique<app::cbr_source>(cfg));
    net.sched().run_until(seconds(1));
    EXPECT_EQ(src->packets_sent(), 0u);
    net.sched().run_until(seconds(10));
    // ~2 s at 1 Mb/s with 1 kB packets = ~250 packets.
    EXPECT_NEAR(static_cast<double>(src->packets_sent()), 250.0, 10.0);
}

TEST(poisson_source_test, mean_rate_matches) {
    sim::dumbbell net(wide_config());
    app::poisson_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = net.right_addr(0);
    cfg.mean_rate_bps = 3e6;
    auto* src = net.left_host(0).attach(1, std::make_unique<app::poisson_source>(cfg));
    net.sched().run_until(seconds(20));
    const double rate = src->packets_sent() * 1000.0 * 8.0 / 20.0;
    EXPECT_NEAR(rate, 3e6, 0.15e6);
}

TEST(poisson_source_test, spacing_is_variable) {
    // Poisson arrivals at rate lambda: variance of per-second counts ~ mean.
    sim::dumbbell net(wide_config());
    app::poisson_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = net.right_addr(0);
    cfg.mean_rate_bps = 0.8e6; // 100 pkt/s
    auto* src = net.left_host(0).attach(1, std::make_unique<app::poisson_source>(cfg));
    util::sample_series counts;
    std::uint64_t last = 0;
    for (int s = 1; s <= 40; ++s) {
        net.sched().run_until(seconds(s));
        counts.add(static_cast<double>(src->packets_sent() - last));
        last = src->packets_sent();
    }
    // Index of dispersion ~ 1 for Poisson (>> 0 for CBR).
    const double dispersion = counts.stddev() * counts.stddev() / counts.mean();
    EXPECT_GT(dispersion, 0.4);
    EXPECT_LT(dispersion, 2.5);
}

TEST(onoff_source_test, duty_cycle_controls_mean_rate) {
    sim::dumbbell net(wide_config());
    app::onoff_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = net.right_addr(0);
    cfg.on_rate_bps = 4e6;
    cfg.mean_on = milliseconds(400);
    cfg.mean_off = milliseconds(600);
    auto* src = net.left_host(0).attach(1, std::make_unique<app::onoff_source>(cfg));
    net.sched().run_until(seconds(60));
    // Mean rate = on_rate * duty cycle = 4 Mb/s * 0.4 = 1.6 Mb/s.
    const double rate = src->bytes_sent() * 8.0 / 60.0;
    EXPECT_NEAR(rate, 1.6e6, 0.4e6);
}

TEST(onoff_source_test, bursts_at_full_rate_while_on) {
    sim::dumbbell net(wide_config());
    app::onoff_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = net.right_addr(0);
    cfg.on_rate_bps = 4e6;
    cfg.mean_on = seconds(10); // effectively always on for this horizon
    cfg.mean_off = milliseconds(1);
    auto* src = net.left_host(0).attach(1, std::make_unique<app::onoff_source>(cfg));
    net.sched().run_until(seconds(5));
    const double rate = src->bytes_sent() * 8.0 / 5.0;
    EXPECT_GT(rate, 3e6);
}

TEST(sink_test, delay_samples_match_path) {
    sim::dumbbell net(wide_config());
    app::cbr_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = net.right_addr(0);
    cfg.rate_bps = 1e6;
    auto* sink = net.right_host(0).attach(1, std::make_unique<app::sink_agent>());
    net.left_host(0).attach(1, std::make_unique<app::cbr_source>(cfg));
    net.sched().run_until(seconds(5));
    // One-way: 1 ms + 10 ms + 1 ms propagation + small serialisation.
    EXPECT_NEAR(sink->delay_seconds().mean(), 0.012, 0.002);
}

} // namespace
