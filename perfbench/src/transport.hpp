// The two ways the benchmark hosts a workload's sessions.
//
//  - engine_pair: the measured system. A 2-shard engine::server serves;
//    the client sessions live on a second, 1-shard engine::server in the
//    same process and are driven through its public connect()/send()/
//    close()/poll_events() calls from the generator thread.
//  - traced_pair: the same sessions on one thread, in a loop assembled
//    from the engine's public parts (sockets, mmsg batches, buffer pool,
//    timer wheel, reactor, flow map, SPSC rings, segment codec). Each call
//    into a layer is recorded as a span; see traced_pair.cpp.
//
// The workload code (workloads.cpp) only sees transport_pair.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "api/session.hpp"
#include "core/connection.hpp"
#include "engine/server.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

/// Raw counters read at the edges of the timed window; the per-layer
/// metrics are deltas between two of these.
struct layer_snapshot {
    vtp::engine::engine_stats server{};
    vtp::engine::engine_stats client{};
    std::vector<cpu_times> server_shards;
    cpu_times client_shard{};
    cpu_times generator{};
    host_ticks host{};
    // Client-side senders, including the ones reaped so far.
    std::uint64_t tx_bytes = 0;
    std::uint64_t tx_rtx_bytes = 0;
    double loss_event_rate_mean = 0.0; ///< over senders not yet closed
    double allowed_rate_bps_mean = 0.0;
};

class transport_pair {
public:
    virtual ~transport_pair() = default;

    /// Open a client session to the server. `on_ready` runs with the fresh
    /// session on the thread that hosts it (streams are opened there).
    virtual void connect(vtp::session_options opts,
                         std::function<void(vtp::session&)> on_ready) = 0;
    /// Queue payload on a client session's stream; false = retry later.
    virtual bool send(std::uint32_t flow, std::uint32_t stream, const std::uint8_t* data,
                      std::size_t len) = 0;
    /// Half-close a client session (FIN once everything is delivered).
    virtual bool close(std::uint32_t flow) = 0;
    virtual std::size_t poll_server(vtp::engine::engine_event* out, std::size_t max) = 0;
    virtual std::size_t poll_client(vtp::engine::engine_event* out, std::size_t max) = 0;
    /// Nothing is due before `until`: wait a little (engine) or run the
    /// transport loop (traced).
    virtual void idle(std::int64_t until) = 0;
    /// Counters for the per-layer table (blocking; engine only).
    virtual layer_snapshot snapshot() { return {}; }
    /// Accepted sessions that have not received data yet (engine only).
    virtual std::uint64_t half_open() { return 0; }
};

/// The engine's reaper detaches accepted sessions only, so a client that
/// opens thousands of short flows must drop its closed outgoing sessions
/// itself or grow without bound. A sender is dropped once its FIN was
/// acknowledged `closed_grace_ns` ago with nothing left to send, by
/// which time its last pacing timer has fired. `for_each_agent` visits
/// (flow, agent&) on the thread hosting the agents; `closed_since`
/// remembers when each sender was first seen closed.
inline constexpr std::int64_t closed_grace_ns = 2'000'000'000;

template <typename ForEach>
std::vector<std::uint32_t> reapable_senders(
    ForEach&& for_each_agent, std::unordered_map<std::uint32_t, std::int64_t>& closed_since,
    std::int64_t now) {
    std::vector<std::uint32_t> out;
    for_each_agent([&](std::uint32_t flow, vtp::qtp::agent& a) {
        const auto* tx = dynamic_cast<const vtp::qtp::connection_sender*>(&a);
        if (tx == nullptr || !tx->closed() || tx->mux().has_payload_work()) return;
        const std::int64_t since = closed_since.try_emplace(flow, now).first->second;
        if (now - since >= closed_grace_ns) out.push_back(flow);
    });
    for (const std::uint32_t f : out) closed_since.erase(f);
    return out;
}

/// Throws std::runtime_error when a socket cannot be bound.
std::unique_ptr<transport_pair> make_engine_pair(std::uint64_t seed);

/// Names of the spans the traced run records (index = span::name).
enum span_name : std::uint16_t {
    sp_recv_batch,
    sp_steer,
    sp_decode,
    sp_rx_ingest,   ///< receiver on_packet, data segment
    sp_tx_feedback, ///< sender on_packet, SACK feedback
    sp_accept,      ///< listener on_packet, SYN
    sp_agent_other, ///< any other agent on_packet
    sp_timer_advance,
    sp_tx_tick,      ///< sender timer callback
    sp_timer_other,  ///< any other timer callback
    sp_encode,
    sp_send_batch,
    sp_poll,
    sp_count
};
std::vector<std::string> span_names();

class traced_pair_base : public transport_pair {
public:
    virtual span_recorder& recorder() = 0;
    /// Wait between a handed-off datagram's push and its pop, ns.
    virtual const std::vector<double>& handoff_waits() const = 0;
};

std::unique_ptr<traced_pair_base> make_traced_pair(std::uint64_t seed,
                                                   std::size_t span_capacity);

} // namespace perfbench
