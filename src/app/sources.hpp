// Application-level traffic sources and sinks.
//
// These agents generate open-loop load (no congestion control): constant
// bit rate, Poisson, and exponential on/off — the classic background
// models for transport evaluations — plus a measuring sink that records
// one-way delay and goodput.
#pragma once

#include <cstdint>

#include "core/environment.hpp"
#include "util/stats.hpp"

namespace vtp::app {

struct cbr_config {
    std::uint32_t flow_id = 0;
    std::uint32_t peer_addr = 0;
    double rate_bps = 1e6;
    std::uint32_t packet_size = 1000; ///< payload bytes
    util::sim_time start_at = 0;
    util::sim_time stop_at = util::time_never;
};

/// Constant-bit-rate datagram source.
class cbr_source : public qtp::agent {
public:
    explicit cbr_source(cbr_config cfg);

    void start(qtp::environment& env) override;
    void on_packet(const packet::packet&) override {}
    std::string name() const override { return "cbr-source"; }

    std::uint64_t packets_sent() const { return packets_sent_; }
    std::uint64_t bytes_sent() const { return bytes_sent_; }

private:
    void tick();
    util::sim_time spacing() const;

    cbr_config cfg_;
    qtp::environment* env_ = nullptr;
    std::uint64_t next_seq_ = 0;
    std::uint64_t packets_sent_ = 0;
    std::uint64_t bytes_sent_ = 0;
};

struct poisson_config {
    std::uint32_t flow_id = 0;
    std::uint32_t peer_addr = 0;
    double mean_rate_bps = 1e6;
    std::uint32_t packet_size = 1000;
};

/// Poisson packet arrivals (exponential spacing) at a mean rate.
class poisson_source : public qtp::agent {
public:
    explicit poisson_source(poisson_config cfg);

    void start(qtp::environment& env) override;
    void on_packet(const packet::packet&) override {}
    std::string name() const override { return "poisson-source"; }

    std::uint64_t packets_sent() const { return packets_sent_; }

private:
    void tick();

    poisson_config cfg_;
    qtp::environment* env_ = nullptr;
    std::uint64_t next_seq_ = 0;
    std::uint64_t packets_sent_ = 0;
};

struct onoff_config {
    std::uint32_t flow_id = 0;
    std::uint32_t peer_addr = 0;
    double on_rate_bps = 2e6;           ///< rate while bursting
    std::uint32_t packet_size = 1000;
    util::sim_time mean_on = util::milliseconds(500);
    util::sim_time mean_off = util::milliseconds(500);
};

/// Exponential on/off source (bursty background, VoIP-talkspurt-like).
class onoff_source : public qtp::agent {
public:
    explicit onoff_source(onoff_config cfg);

    void start(qtp::environment& env) override;
    void on_packet(const packet::packet&) override {}
    std::string name() const override { return "onoff-source"; }

    std::uint64_t packets_sent() const { return packets_sent_; }
    std::uint64_t bytes_sent() const { return bytes_sent_; }
    bool bursting() const { return on_; }

private:
    void toggle();
    void tick();

    onoff_config cfg_;
    qtp::environment* env_ = nullptr;
    bool on_ = false;
    std::uint64_t next_seq_ = 0;
    std::uint64_t packets_sent_ = 0;
    std::uint64_t bytes_sent_ = 0;
    qtp::timer_id send_timer_ = qtp::no_timer;
};

/// Measuring sink: counts datagram goodput and samples one-way delay
/// (requires synchronised clocks, which simulation has by construction).
class sink_agent : public qtp::agent {
public:
    void start(qtp::environment& env) override { env_ = &env; }
    void on_packet(const packet::packet& pkt) override;
    std::string name() const override { return "sink"; }

    std::uint64_t packets() const { return packets_; }
    std::uint64_t bytes() const { return bytes_; }
    const util::sample_series& delay_seconds() const { return delays_; }

private:
    qtp::environment* env_ = nullptr;
    std::uint64_t packets_ = 0;
    std::uint64_t bytes_ = 0;
    util::sample_series delays_;
};

} // namespace vtp::app
