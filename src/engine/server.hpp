// engine::server — the production-shaped host runtime for vtp servers.
//
// Wraps N engine::shards behind one UDP port and gives each shard its
// own vtp::server (listener + session table), so thousands of QTP
// connections are served with batched syscalls, O(1) timers and
// lock-free per-shard state:
//
//   engine::engine_config cfg;
//   cfg.port = 9000;
//   cfg.shards = 4;
//   engine::server srv(cfg);
//   srv.set_on_session([](std::size_t shard, vtp::session& s) {
//       s.set_on_stream_delivered(...);   // runs on that shard's thread
//   });
//   srv.start();
//
// Accept policy, capability downgrades and renegotiation behave exactly
// as on vtp::server (engine_config::accept is a vtp::server_options);
// closed sessions are reaped on a per-shard timer. Outgoing sessions are
// hosted the same way: connect() picks a flow id, routes to the owner
// shard (the flow-id hash every shard agrees on) and builds the
// vtp::session there.
//
// Thread model (API v2): the application talks to engine-hosted
// sessions without ever touching shard state.
//  - Downstream: poll_events() merges the per-shard event rings —
//    established / readable (carrying the payload chunk) / writable /
//    fin / closed — filled by the shards as sessions progress.
//  - Upstream: send()/finish()/close()/renegotiate() enqueue commands
//    on the owner shard's lock-free mailbox (engine::spsc_queue) and
//    ring its self-pipe; the shard executes them at its next turn.
// Both rings are bounded: overflow drops and counts
// (events_dropped / commands_dropped), never blocks a shard.
// One application thread may drive poll_events() and the command
// mailboxes at a time (they are SPSC rings).
//
// The pre-v2 escape hatches remain: set_on_session callbacks run on the
// shard thread, with_server() posts control-plane closures, stats() may
// be read from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "core/events.hpp"
#include "engine/shard.hpp"
#include "trace/metrics.hpp"
#include "trace/window.hpp"
#include "trace/writer.hpp"

namespace vtp::ops {
class admin_server;
}

namespace vtp::engine {

struct engine_config {
    std::uint16_t port = 0;
    std::size_t shards = 2;

    /// Accept-side behaviour of every shard's vtp::server (capabilities,
    /// per-accept capability policy, packet size, handshake timers).
    vtp::server_options accept{};

    /// How often each shard reaps sessions whose peer closed.
    util::sim_time reap_interval = util::seconds(1);

    // Datapath knobs, applied to every shard. rx_batch counts receive
    // slots per recvmmsg: 2-KiB datagram slots, or at most 16 64-KiB
    // coalesced-receive slots once the shard receives UDP GRO.
    std::size_t rx_batch = 64;
    std::size_t tx_batch = 64;
    std::size_t pool_buffers = 4096;
    std::size_t handoff_capacity = 512;
    std::uint32_t send_burst = 8;
    std::uint64_t rng_seed = 1;

    /// Per-shard bounded rings of the v2 API: events exported to
    /// poll_events() and commands from the application thread. Overflow
    /// drops and counts — size for the application's polling cadence.
    std::size_t event_queue_capacity = 4096;
    std::size_t command_queue_capacity = 1024;

    /// Flight-recorder spill directory. When non-empty, each shard spools
    /// its sessions' trace rings to `<trace_dir>/trace-shard<i>.vtpt`
    /// through a per-shard writer thread (trace::async_writer), and every
    /// accepted or connected session gets a trace ring of
    /// `accept.trace_ring_records` records (defaulted to 4096 when left
    /// 0). Empty (the default) compiles the hooks out of the hot path —
    /// sessions run untraced.
    std::string trace_dir{};

    /// Live operations plane (src/ops/): when non-zero, start() binds a
    /// loopback HTTP admin endpoint on this port serving /metrics,
    /// /sessions, /shards, /healthz and POST /trace/<flow>/start|stop.
    /// 0 (the default) leaves the plane off. Bind failure logs a
    /// warning and leaves the engine running without it.
    std::uint16_t admin_port = 0;

    /// Span of the per-shard sliding telemetry window: counters become
    /// vtp_*_rate and histograms vtp_*_p99_60s over roughly this long.
    /// Snapshots are taken at reap ticks, so the effective resolution
    /// is reap_interval.
    util::sim_time telemetry_window = util::seconds(60);
};

/// Aggregate of all shards (plus accept accounting).
struct engine_stats {
    std::uint64_t datagrams_rx = 0;
    std::uint64_t datagrams_tx = 0;
    std::uint64_t rx_batches = 0;
    std::uint64_t tx_batches = 0;
    std::uint64_t tx_dropped = 0;
    std::uint64_t handoff_out = 0;
    std::uint64_t handoff_dropped = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t truncated_dropped = 0; ///< MSG_TRUNC'd datagrams dropped
    std::uint64_t pool_exhausted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t sessions = 0; ///< live session gauge across shards
    /// v2 API backpressure: events lost to a full export ring, commands
    /// rejected by a full mailbox (or targeting unknown flows).
    std::uint64_t events_dropped = 0;
    std::uint64_t commands_dropped = 0;
    /// Mid-flow congestion-control swaps applied across all hosted
    /// sessions (profile_changed events whose cc id differs from the
    /// flow's previous one).
    std::uint64_t cc_swaps_applied = 0;
    /// Accept-path guard accounting, mirrored from each shard's
    /// vtp::server at its reap ticks (see listener_guard_stats).
    std::uint64_t syn_retries_sent = 0;
    std::uint64_t syn_cookies_validated = 0;
    std::uint64_t syn_cookies_rejected = 0;
    std::uint64_t syn_rate_limited = 0; ///< SYN + stray bucket denials
    std::uint64_t syn_sheds = 0;        ///< admission refusals (session caps)
    std::uint64_t amp_limited = 0;      ///< retries withheld by the 3x budget
    std::uint64_t reneg_rate_limited = 0; ///< reneg-bucket denials (all sessions)
    std::uint64_t half_open = 0;        ///< gauge: accepted but no data yet
    /// Validated path migrations across all hosted sessions, plus the
    /// validation outcomes behind them (see path::manager_stats).
    std::uint64_t path_migrations = 0;
    std::uint64_t path_validations = 0;
    std::uint64_t path_validation_failures = 0;
    std::uint64_t path_responses_rejected = 0;
};

/// One event of an engine-hosted session, as merged by poll_events().
/// `payload` carries the delivered chunk of a readable event (its stream
/// offset is ev.offset); other kinds leave it empty.
struct engine_event {
    std::size_t shard = 0;
    std::uint32_t flow = 0;
    qtp::event ev{};
    std::vector<std::uint8_t> payload;
};

class server {
public:
    explicit server(engine_config cfg);
    ~server(); ///< stops and joins all shards

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Called on the owning shard's thread with every freshly accepted
    /// session (shard index, session). Set before start().
    void set_on_session(std::function<void(std::size_t, vtp::session&)> cb) {
        on_session_ = std::move(cb);
    }

    /// Spawn the shard threads. One-shot: calling start() again after
    /// stop() throws std::logic_error (build a fresh server instead).
    void start();
    void stop();

    std::size_t shard_count() const { return shards_.size(); }
    shard& shard_at(std::size_t i) { return *shards_[i]; }
    /// Which shard owns `flow_id` (same mapping every shard uses).
    std::size_t owner_of(std::uint32_t flow_id) const {
        return shards_[0]->flow_map().owner(flow_id);
    }

    /// Open an outgoing session from this engine to `peer_addr`. The
    /// session is built on the shard owning its flow id; `on_ready` runs
    /// there with the fresh handle. Safe from any thread.
    void connect(std::uint32_t peer_addr, vtp::session_options opts,
                 std::function<void(std::size_t, vtp::session)> on_ready);

    /// Run `fn` on shard `i`'s thread with that shard's vtp::server
    /// (control-plane escape hatch: iterate sessions, read listener
    /// counters). Safe from any thread.
    void with_server(std::size_t i, std::function<void(vtp::server&)> fn);

    // --- v2 poll/command API (one application thread) -------------------
    /// Drain up to `max` events across all shards (round-robin). Returns
    /// how many were written. Non-blocking.
    std::size_t poll_events(engine_event* out, std::size_t max);
    /// Queue `data` on stream `stream_id` of the session terminating
    /// `flow` (hosted on shard `shard_idx` — the value every event of
    /// that session reports). Copies the bytes into the mailbox; false
    /// when the mailbox is full (counted, retry after draining events).
    /// If the session was created with a max_buffered_bytes cap, a send
    /// exceeding the remaining space is truncated at execution time and
    /// counted in commands_dropped — keep engine sends within the cap
    /// (engine-hosted senders default to unlimited buffering).
    bool send(std::size_t shard_idx, std::uint32_t flow, std::uint32_t stream_id,
              const std::uint8_t* data, std::size_t len);
    /// Half-close one stream of the session.
    bool finish(std::size_t shard_idx, std::uint32_t flow, std::uint32_t stream_id);
    /// Half-close the whole session (FIN once everything delivered).
    bool close(std::size_t shard_idx, std::uint32_t flow);
    /// Propose a profile renegotiation from the engine side.
    bool renegotiate(std::size_t shard_idx, std::uint32_t flow, const qtp::profile& p);

    engine_stats stats() const;
    std::vector<shard_stats> per_shard_stats() const;
    const engine_config& config() const { return cfg_; }

    /// Consistent snapshots of every hosted session (`only_flow` != 0
    /// restricts to one flow), collected on the owner shard threads via
    /// posted closures — no cross-thread reads of session state. Blocks
    /// until every shard answered or ~1s passed (a stopped or
    /// never-started engine returns what it has, possibly nothing).
    std::vector<vtp::session_snapshot> snapshot_sessions(std::uint32_t only_flow = 0);

    /// Per-shard sliding-window telemetry ring (snapshots at reap ticks).
    const trace::window_ring& window(std::size_t i) const { return *windows_[i]; }
    /// Engine-wide telemetry delta over the last `window_ns`
    /// (0 = the configured telemetry_window span).
    trace::window_delta merged_window(std::uint64_t window_ns = 0) const;

    /// The live admin plane (null when engine_config::admin_port is 0,
    /// start() has not run, or the bind failed).
    ops::admin_server* admin() { return admin_.get(); }

    // --- metrics (any thread) -------------------------------------------
    /// Merge the engine's counters/gauges plus every shard's registry
    /// (turn durations, timer fire latency, RTT samples, event-ring
    /// occupancy) into `out` by series name. Counters are emitted as
    /// absolute values into the fresh registry, so call it on an empty
    /// one — which is what metrics()/metrics_text() do.
    void collect_metrics(trace::registry& out) const;
    /// Snapshot of every engine metric series (>= 12 named series once
    /// traffic has flowed).
    std::unique_ptr<trace::registry> metrics() const {
        auto out = std::make_unique<trace::registry>();
        collect_metrics(*out);
        return out;
    }
    /// The snapshot rendered in Prometheus text exposition format.
    std::string metrics_text() const { return metrics()->prometheus_text(); }

    /// The per-shard trace spool (nullptr when engine_config::trace_dir
    /// is empty or the file could not be opened).
    trace::async_writer* trace_writer(std::size_t shard_idx) {
        return shard_idx < writers_.size() ? writers_[shard_idx].get() : nullptr;
    }

private:
    struct command {
        enum class kind : std::uint8_t { send, finish, close, renegotiate };
        kind what = kind::send;
        std::uint32_t flow = 0;
        std::uint32_t stream_id = 0;
        std::vector<std::uint8_t> bytes;
        qtp::profile prof{};
    };

    /// Pushes a shard's session events into its export ring (installed
    /// as the qtp::event_sink of every session the shard hosts).
    struct shard_sink final : qtp::event_sink {
        server* owner = nullptr;
        std::size_t index = 0;
        /// Last cc algorithm seen per flow — written only on this shard's
        /// thread (the sink is called from the agent), read nowhere else,
        /// so no lock. Swap detection feeds the server-wide atomic.
        std::unordered_map<std::uint32_t, cc::algorithm_id> last_cc;
        bool on_session_event(std::uint32_t flow, const qtp::event& ev,
                              std::vector<std::uint8_t>& payload) override;
    };

    void arm_reaper(vtp::server* srv, shard& sh);
    bool enqueue(std::size_t shard_idx, command&& cmd);
    void execute(std::size_t shard_idx, command& cmd);
    /// Append vtp_*_rate / vtp_*_p99_60s derived series to `out` from
    /// the merged telemetry window (no-op until 2+ snapshots exist).
    void collect_windowed(trace::registry& out) const;

    engine_config cfg_;
    /// Declared before shards_ on purpose: shard destruction tears down
    /// the hosted connections, whose tracers flush their final frames
    /// into these sinks — the writers must outlive the shards.
    std::vector<std::unique_ptr<trace::async_writer>> writers_;
    std::vector<std::unique_ptr<shard>> shards_;
    std::vector<std::unique_ptr<vtp::server>> servers_; ///< one per shard
    std::vector<std::unique_ptr<spsc_queue<engine_event>>> events_; ///< shard -> app
    std::vector<std::unique_ptr<spsc_queue<command>>> commands_;    ///< app -> shard
    std::vector<shard_sink> sinks_;
    /// Cached per-shard series (pointers into each shard's registry —
    /// stable for the shard's lifetime): v2 export-ring depth sampled
    /// once per turn, and smoothed RTT sampled per session at reap ticks.
    std::vector<trace::histogram*> ring_occupancy_;
    std::vector<trace::histogram*> rtt_ns_;
    /// Half-open population sampled once per shard turn (spike-visible,
    /// unlike the reap-tick guard mirror).
    std::vector<trace::histogram*> half_open_turns_;
    /// Per-shard sliding-window snapshot rings (reap-tick cadence).
    std::vector<std::unique_ptr<trace::window_ring>> windows_;
    /// Admin plane; reset by stop() before the shards stop so live trace
    /// taps detach while their owner threads still run.
    std::unique_ptr<ops::admin_server> admin_;
    std::function<void(std::size_t, vtp::session&)> on_session_;
    std::atomic<std::uint32_t> next_flow_{0x50000000}; ///< outgoing-session ids
    std::atomic<std::uint64_t> commands_dropped_{0};
    std::atomic<std::uint64_t> cc_swaps_{0}; ///< see engine_stats::cc_swaps_applied
    std::size_t poll_cursor_ = 0; ///< round-robin fairness across shards
    bool started_ = false;
    bool stopped_ = false;
};

} // namespace vtp::engine
