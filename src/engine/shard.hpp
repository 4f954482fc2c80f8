// One worker shard of the server engine.
//
// A shard is a single-threaded transport runtime: an epoll reactor, a
// hierarchical timer wheel, a datagram buffer pool and a connection
// table, all owned by one thread — so the qtp agents it hosts stay
// lock-free, exactly as they are on the simulator. The shard implements
// qtp::environment, which means every agent in the library (and every
// vtp::session / vtp::server built on them) runs on it unmodified.
//
// Scale-out model (engine::server wires N of these together):
//   - each shard binds its own SO_REUSEPORT member socket on the shared
//     engine port;
//   - flow ownership is a pure function of the flow id
//     (flow_shard_map), and interconnect() attaches the same function
//     to the group as a classic-BPF steering program, so the kernel
//     delivers each datagram to its owner's socket;
//   - a datagram that still lands on the wrong shard (no steering: off
//     Linux or a refused attach) is handed to its owner through a
//     bounded SPSC ring — no locks on the datapath, and a full ring
//     drops like a NIC queue would;
//   - where steering attached, or in a one-shard engine, the socket
//     receives UDP GRO: a per-flow super-datagram arrives whole in a
//     64-KiB slot and is split back into datagrams;
//   - transmission batches through the buffer pool and sendmmsg: agents'
//     send() calls append pool buffers to the pending batch, which is
//     flushed once per loop turn (or when full), each same-flow run as
//     one UDP GSO send. The per-packet transmit path performs zero heap
//     allocation.
//
// Cross-thread entry points are exactly two: post() (run a closure on
// the shard thread; used for control-plane work like opening client
// sessions) and the SPSC handoff rings. Everything else must run on the
// shard's own thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/environment.hpp"
#include "engine/buffer_pool.hpp"
#include "trace/metrics.hpp"
#include "engine/flow_map.hpp"
#include "engine/reactor.hpp"
#include "engine/spsc_queue.hpp"
#include "engine/timer_wheel.hpp"
#include "engine/udp_io.hpp"
#include "util/rng.hpp"

namespace vtp::engine {

struct shard_config {
    std::uint16_t port = 0;       ///< shared engine port (SO_REUSEPORT group)
    std::size_t index = 0;        ///< this shard's slot in the engine
    std::size_t shard_count = 1;  ///< total shards (flow-hash modulus)
    std::size_t rx_batch = 64;    ///< receive slots per recvmmsg (GRO: at most 16)
    std::size_t tx_batch = 64;    ///< flush threshold for sendmmsg
    std::size_t pool_buffers = 4096;    ///< transmit buffer pool size
    std::size_t handoff_capacity = 512; ///< per-peer SPSC ring depth
    /// Base burst per pacing slot (environment::send_burst); a late
    /// slot adds its earned credit, up to
    /// qtp::connection_sender::max_slot_bursts times this.
    std::uint32_t send_burst = 8;
    int rcvbuf_bytes = 1 << 21;   ///< socket receive buffer (0 = default)
    int sndbuf_bytes = 1 << 21;   ///< socket send buffer (0 = default)
    std::uint64_t rng_seed = 1;
};

/// Monotonically increasing counters, written only by the shard thread,
/// readable from any thread.
struct shard_counters {
    std::atomic<std::uint64_t> datagrams_rx{0};
    std::atomic<std::uint64_t> datagrams_tx{0};
    std::atomic<std::uint64_t> rx_batches{0}; ///< recv_batch calls that returned >0
    std::atomic<std::uint64_t> tx_batches{0}; ///< flushes that sent >0
    std::atomic<std::uint64_t> tx_dropped{0}; ///< kernel send buffer full / oversized segment
    std::atomic<std::uint64_t> handoff_out{0}; ///< forwarded to owner shards
    std::atomic<std::uint64_t> handoff_in{0};  ///< received from peer shards
    std::atomic<std::uint64_t> handoff_dropped{0}; ///< ring full
    std::atomic<std::uint64_t> decode_errors{0};
    std::atomic<std::uint64_t> truncated_dropped{0}; ///< truncated or > max_datagram, dropped
    std::atomic<std::uint64_t> pool_exhausted{0};
    std::atomic<std::uint64_t> sessions{0}; ///< gauge, maintained by engine::server
    std::atomic<std::uint64_t> accepted{0}; ///< engine::server accept count
    std::atomic<std::uint64_t> events_dropped{0}; ///< full event-export ring

    // Accept-path guard mirrors: engine::server copies the shard's
    // vtp::server guard stats here on each reap tick (absolute values,
    // stored not added — the vtp::server counters are the source of
    // truth and these just make them readable cross-thread).
    std::atomic<std::uint64_t> syn_retries_sent{0};
    std::atomic<std::uint64_t> syn_cookies_validated{0};
    std::atomic<std::uint64_t> syn_cookies_rejected{0};
    std::atomic<std::uint64_t> syn_rate_limited{0}; ///< SYN + stray bucket denials
    std::atomic<std::uint64_t> syn_sheds{0};
    std::atomic<std::uint64_t> amp_limited{0};
    std::atomic<std::uint64_t> reneg_rate_limited{0}; ///< reneg bucket denials
    std::atomic<std::uint64_t> half_open{0}; ///< gauge

    // Path migration mirrors (same reap-tick absolute-store discipline;
    // zero while the engine's path config is disabled).
    std::atomic<std::uint64_t> path_migrations{0};
    std::atomic<std::uint64_t> path_validations{0};
    std::atomic<std::uint64_t> path_validation_failures{0};
    std::atomic<std::uint64_t> path_responses_rejected{0};
};

/// Plain-value snapshot of shard_counters.
struct shard_stats {
    std::uint64_t datagrams_rx = 0;
    std::uint64_t datagrams_tx = 0;
    std::uint64_t rx_batches = 0;
    std::uint64_t tx_batches = 0;
    std::uint64_t tx_dropped = 0;
    std::uint64_t handoff_out = 0;
    std::uint64_t handoff_in = 0;
    std::uint64_t handoff_dropped = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t truncated_dropped = 0;
    std::uint64_t pool_exhausted = 0;
    std::uint64_t sessions = 0;
    std::uint64_t accepted = 0;
    std::uint64_t events_dropped = 0;
    std::uint64_t syn_retries_sent = 0;
    std::uint64_t syn_cookies_validated = 0;
    std::uint64_t syn_cookies_rejected = 0;
    std::uint64_t syn_rate_limited = 0;
    std::uint64_t syn_sheds = 0;
    std::uint64_t amp_limited = 0;
    std::uint64_t reneg_rate_limited = 0;
    std::uint64_t half_open = 0;
    std::uint64_t path_migrations = 0;
    std::uint64_t path_validations = 0;
    std::uint64_t path_validation_failures = 0;
    std::uint64_t path_responses_rejected = 0;
};

class shard final : public qtp::environment {
public:
    explicit shard(shard_config cfg);
    ~shard() override;

    shard(const shard&) = delete;
    shard& operator=(const shard&) = delete;

    /// Wire up the SPSC handoff rings between all shards of one engine
    /// (`all[i]` must be the shard with index i, bound i-th to the port),
    /// attach the flow-steering program to their socket group, and turn
    /// on GRO if it attached. Call once, before any start().
    /// Single-shard engines may skip it.
    static void interconnect(const std::vector<shard*>& all);

    /// Spawn the worker thread. Agents attached before start() begin
    /// receiving immediately.
    void start();
    /// Stop and join the worker thread (idempotent).
    void stop();

    /// Run `fn` on the shard thread at the next loop turn (the only
    /// cross-thread control-plane entry point; safe from any thread, and
    /// before start(), where it runs at the first turn).
    void post(std::function<void()> fn);

    /// Interrupt the reactor sleep so the next turn runs promptly. Safe
    /// from any thread — this is how lock-free mailboxes (the engine's
    /// command rings) get their producer-side doorbell.
    void wake();

    /// Install a hook run once per loop turn on the shard thread, before
    /// timers fire (the engine drains its command mailbox here). Set
    /// before start().
    void set_turn_hook(std::function<void()> fn) { turn_hook_ = std::move(fn); }

    /// Look up the agent terminating `flow_id` (shard thread only;
    /// nullptr for unknown).
    qtp::agent* find_agent(std::uint32_t flow_id) {
        const auto it = agents_.find(flow_id);
        return it == agents_.end() ? nullptr : it->second.get();
    }

    /// Visit every attached agent (shard thread only; do not attach or
    /// detach from inside the visitor). The engine's metrics reaper uses
    /// this to sample per-connection state across both session roles.
    void for_each_agent(const std::function<void(std::uint32_t, qtp::agent&)>& fn) {
        for (auto& [flow, a] : agents_) fn(flow, *a);
    }

    /// Attach an agent terminating `flow_id` on this shard; the shard
    /// owns it. Only before start() or from the shard thread — use
    /// post() otherwise. The flow must hash to this shard
    /// (flow_shard_map::owner), or its inbound packets will be handed to
    /// a shard that does not know it.
    template <typename agent_type>
    agent_type* attach(std::uint32_t flow_id, std::unique_ptr<agent_type> a) {
        agent_type* raw = a.get();
        attach_dynamic(flow_id, std::move(a));
        return raw;
    }

    // --- qtp::environment (shard thread only) ---
    util::sim_time now() const override;
    qtp::timer_id schedule(util::sim_time delay, std::function<void()> fn) override;
    void cancel(qtp::timer_id id) override;
    void send(packet::packet pkt) override;
    std::uint32_t local_addr() const override { return cfg_.port; }
    util::rng& random() override { return rng_; }
    void attach_dynamic(std::uint32_t flow_id, std::unique_ptr<qtp::agent> a) override;
    void detach_dynamic(std::uint32_t flow_id) override { agents_.erase(flow_id); }
    void set_default_agent(qtp::agent* a) override { default_agent_ = a; }
    std::uint32_t send_burst() const override { return cfg_.send_burst; }

    std::size_t index() const { return cfg_.index; }
    std::size_t agent_count() const { return agents_.size(); }
    const shard_counters& counters() const { return stats_; }
    shard_counters& counters() { return stats_; }
    shard_stats stats() const;
    const flow_shard_map& flow_map() const { return map_; }

    /// This shard's metrics registry (wait-free updates on the shard
    /// thread; any thread may read/merge it). Built-in series:
    /// vtp_shard_turn_ns (busy time of each loop turn, excluding the
    /// reactor sleep) and vtp_timer_fire_latency_ns (wheel lateness vs
    /// true deadline). engine::server adds its own series here and
    /// aggregates the registries in metrics().
    trace::registry& metrics() { return metrics_; }
    const trace::registry& metrics() const { return metrics_; }

private:
    /// A datagram crossing shards: copied whole into the ring slot so no
    /// allocation or shared ownership crosses the thread boundary.
    struct handoff_msg {
        std::uint32_t len = 0;
        std::uint8_t bytes[max_datagram];
    };

    /// Receive coalesced datagrams into GRO slots, if the kernel lets us.
    void enable_gro();
    void run();
    void turn();
    void on_socket_readable();
    void drain_posted();
    void drain_handoffs();
    void dispatch(const std::uint8_t* dgram, std::size_t len);
    void flush_tx();

    shard_config cfg_;
    flow_shard_map map_;
    util::rng rng_;

    int fd_ = -1;
    int wake_r_ = -1, wake_w_ = -1; ///< self-pipe: post()/handoff wake-up
    reactor reactor_;
    timer_wheel wheel_;
    buffer_pool pool_;
    rx_batch rx_;
    std::vector<tx_item> tx_pending_;

    std::unordered_map<std::uint32_t, std::unique_ptr<qtp::agent>> agents_;
    qtp::agent* default_agent_ = nullptr;

    /// inbound_[j]: ring produced by shard j, consumed (and owned) by
    /// this shard. outbound_[i] points at peer i's inbound ring for us.
    /// Entries for self are null.
    std::vector<std::unique_ptr<spsc_queue<handoff_msg>>> inbound_;
    std::vector<spsc_queue<handoff_msg>*> outbound_;
    std::vector<shard*> peers_;
    std::vector<std::uint8_t> notify_; ///< per-batch: peers needing a wake-up

    std::mutex posted_mu_;
    std::vector<std::function<void()>> posted_;
    std::function<void()> turn_hook_;

    std::thread thread_;
    std::atomic<bool> running_{false};

    shard_counters stats_;
    trace::registry metrics_;
    trace::histogram* turn_ns_ = nullptr; ///< cached vtp_shard_turn_ns
};

} // namespace vtp::engine
