// The machinery both QTP connection roles share.
//
// In the paper both ends of a connection are built from the same
// micro-mechanisms; `endpoint_core` holds the parts that do not depend
// on which end this is:
//  - the negotiated configuration, substrate binding and active profile;
//  - the event surface: one bounded ring drained through poll(), or an
//    installed event_sink (the engine's cross-thread export);
//  - the flight recorder and its runtime attach/detach;
//  - mid-connection renegotiation: the initiator driver, the responder,
//    the incoming-proposal budget and their counters;
//  - the path manager (validation, migration, rebind detection).
//
// connection_sender and connection_receiver (core/connection.hpp) derive
// from it and supply only what differs by role: the renegotiation
// boundary and tie-break, how an accepted profile is applied, and what
// rides on tracer or sink changes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/environment.hpp"
#include "core/events.hpp"
#include "core/negotiation.hpp"
#include "core/profile.hpp"
#include "diffserv/token_bucket.hpp"
#include "path/manager.hpp"
#include "sack/scoreboard.hpp"
#include "stream/stream_scheduler.hpp"
#include "tfrc/sender.hpp"
#include "tfrc/sender_estimator.hpp"
#include "trace/tracer.hpp"

namespace vtp::qtp {

struct connection_config {
    std::uint32_t flow_id = 0;
    std::uint32_t peer_addr = 0;
    std::uint32_t packet_size = 1000; ///< payload bytes per data packet

    profile proposal{};    ///< sender side: profile to propose
    /// What this endpoint supports. The receiver uses it to answer the
    /// SYN; both sides use it to answer mid-connection reneg proposals.
    capabilities caps{};

    tfrc::rate_controller_config rate{};
    tfrc::sender_estimator_config estimator{};
    sack::scoreboard_config scoreboard{};
    /// Retransmission cap for partial reliability (0 = unlimited).
    std::uint32_t max_transmissions = 0;

    /// Application source: stream length in bytes (UINT64_MAX = unlimited
    /// synthetic source, the usual benchmark configuration).
    std::uint64_t total_bytes = UINT64_MAX;

    /// Application-driven source (the vtp::session API): the stream grows
    /// through connection_sender::offer() and only ends once
    /// finish_stream() is called — until then no FIN is sent even when
    /// every offered byte is delivered. `total_bytes` is the initial
    /// backlog (use 0 with this flag).
    bool stream_open = false;

    /// Message framing for partial reliability: the stream is cut into
    /// `message_size`-byte messages; each message expires
    /// `message_deadline` after its first transmission. 0 disables
    /// framing (plain byte stream). Applies to stream 0; further streams
    /// carry their own framing in stream::stream_options.
    std::uint32_t message_size = 0;
    util::sim_time message_deadline = util::time_never;

    /// Cap on offered-but-unsent bytes across all streams; offer()
    /// returns how much was accepted. 0 = unlimited (legacy behaviour).
    std::uint64_t max_buffered_bytes = 0;

    /// Per-session event ring capacity (poll-based API).
    std::size_t event_queue_capacity = 256;

    /// Receiver: cap on payload bytes buffered for recv(); chunks beyond
    /// it are dropped and counted (session_stats::recv_dropped_bytes).
    /// 0 = unlimited.
    std::uint64_t recv_buffer_bytes = 16u << 20;

    /// Sender stream scheduler (weights quantum, deadline promotion).
    stream::stream_scheduler_config scheduler{};

    /// Handshake retransmission interval.
    util::sim_time handshake_rtx = util::milliseconds(500);

    /// Receiver liveness deadline: a spawned endpoint whose peer shows no
    /// sign of life (no data, renegotiation, or FIN) within this window
    /// transitions to closed so the owner's reap path collects it — the
    /// half-open flood fix. 0 disables.
    util::sim_time handshake_deadline = util::seconds(30);

    /// Bound on incoming renegotiation-proposal processing (token bucket
    /// over wire bytes; 0 = unbounded). A peer retransmitting proposals
    /// beyond the budget sees them dropped and counted
    /// (session_stats::reneg_rate_limited).
    double reneg_rate_bps = 0.0;
    std::size_t reneg_burst_bytes = 0;

    /// Receiver gate: data whose sequence jumps this many packets past
    /// the highest range seen is rejected as corruption/hostile input
    /// (tracking the implied hole costs O(gap) in the loss history).
    /// The default allows ~64 MB in flight at 1 kB packets; raise it for
    /// high-BDP paths whose flight exceeds that.
    std::uint64_t max_seq_jump = 1u << 16;

    /// Flight-recorder tracing (trace/record.hpp): ring capacity in
    /// records, 0 disables every hook (the default — hooks then cost one
    /// null test). Without a sink the ring keeps the most recent events
    /// and counts overwrites (session_stats::trace_events_dropped); with
    /// `trace_sink` set, full rings spill to it as lossless frames
    /// (trace/writer.hpp) and flush at close.
    std::size_t trace_ring_records = 0;
    trace::sink* trace_sink = nullptr;

    /// Connection migration / multipath (path/path.hpp). Disabled by
    /// default: the manager is inert, packet sources are ignored and no
    /// randomness is drawn — wire behaviour is bit-identical to the
    /// pre-path tree (the frozen trace-hash configuration).
    path::manager_config path{};
};

class endpoint_core : public agent {
public:
    // --- event surface ---------------------------------------------------
    /// Drain queued session events.
    std::size_t poll(event* out, std::size_t max) { return events_.poll(out, max); }
    /// Export events to `sink` instead of the ring (the engine's
    /// cross-thread binding); already queued events drain into it first.
    void set_event_sink(event_sink* sink);
    std::uint64_t events_dropped() const { return events_.dropped(); }

    // --- flight recorder -------------------------------------------------
    /// Records written / lost to ring overwrite (0 while tracing is off).
    std::uint64_t trace_recorded() const { return tracer_ ? tracer_->recorded() : 0; }
    std::uint64_t trace_dropped() const { return tracer_ ? tracer_->dropped() : 0; }
    /// Attach a flight-recorder tap at runtime (admin plane). Replaces
    /// any existing tracer, flushing it first; `sink` must outlive the
    /// tap (detach_tracer or connection destruction flushes into it).
    void attach_tracer(std::size_t ring_records, trace::sink* sink);
    /// Flush and drop the active tracer (no-op when none).
    void detach_tracer();

    // --- renegotiation ---------------------------------------------------
    /// Propose switching the connection to profile `p`. The proposal is
    /// retransmitted until acknowledged; on acceptance (possibly
    /// downgraded by the peer's capabilities) both endpoints swap
    /// micro-mechanisms and a profile_changed event fires.
    void request_renegotiate(const profile& p);
    bool renegotiation_pending() const { return reneg_.pending(); }
    std::uint32_t renegotiations() const { return renegotiations_; }
    std::uint64_t reneg_proposals_sent() const { return reneg_.proposals_sent(); }
    std::uint64_t reneg_proposals_accepted() const { return reneg_.proposals_accepted(); }
    /// Reneg proposals dropped by the processing budget (cfg.reneg_rate_bps).
    std::uint64_t reneg_rate_limited() const { return reneg_rate_limited_; }

    /// Path manager introspection (per-path stats, migration counters).
    const path::manager& paths() const { return path_; }

    bool established() const { return established_; }
    /// Sender: FIN sent and FIN-ACK received. Receiver: the peer's FIN
    /// was seen, or the handshake deadline declared the peer dead.
    bool closed() const { return closed_; }
    const profile& active_profile() const { return active_; }

protected:
    /// `tag` names the role in log lines ("qtp-send" / "qtp-recv").
    endpoint_core(connection_config cfg, const char* tag);

    /// Route an event to the sink when one is installed, else the ring.
    /// Returns false when the event was dropped on a full queue —
    /// edge-triggered emitters must then re-arm their edge.
    bool emit(const event& ev);

    /// Wire the path manager's change hook and install the initial peer
    /// path (call from start(), once env_ is bound).
    void start_paths();
    /// Dispatch path_challenge / path_response frames and feed per-path
    /// receive accounting; returns true when the packet was a path
    /// probe (fully consumed). Inert when cfg.path.enabled is false.
    bool on_path_frame(const packet::packet& pkt);

    /// The reneg / reneg_ack exchange: budget and answer a peer's
    /// proposal, or apply the accepted answer to our own.
    void on_reneg(const packet::handshake_segment& seg);

    /// The handshake completed under active_: mark established, trace,
    /// log and emit.
    void announce_established();
    /// Count, trace, log and emit a profile switch applied at
    /// `boundary_seq` (the first sequence number it governs; 0 when the
    /// role does not know it).
    void announce_profile(std::uint64_t boundary_seq);
    /// Mark the endpoint closed and stop the shared machinery
    /// (renegotiation I/O, path probing). Idempotent.
    void shut_down();
    /// Trace, flush and emit the closed transition (once per endpoint).
    void announce_closed();

    // --- role hooks ------------------------------------------------------
    /// First sequence number this endpoint handles under a profile
    /// accepted now (stamped into our reneg_ack).
    virtual std::uint64_t reneg_boundary() const = 0;
    /// An admitted peer proposal arrived. Crossed proposals tie-break by
    /// role — the sender's wins: return false to leave this one
    /// unanswered until our own exchange settles.
    virtual bool on_peer_proposal() = 0;
    /// Swap micro-mechanisms to `p` from `boundary_seq` on, then
    /// announce_profile().
    virtual void apply_profile(const profile& p, std::uint64_t boundary_seq) = 0;
    /// tracer_ was replaced or dropped.
    virtual void tracer_changed() {}
    /// A sink was installed and the queued events drained into it.
    virtual void sink_attached() {}

    connection_config cfg_;
    environment* env_ = nullptr;
    profile active_{};
    bool established_ = false;
    bool closed_ = false;

    reneg_driver reneg_;
    std::unique_ptr<trace::tracer> tracer_; ///< null = tracing disabled
    /// Path validation / migration / rebind detection. Inert (and
    /// random-draw free) unless cfg.path.enabled.
    path::manager path_;
    event_sink* sink_ = nullptr;

private:
    const char* tag_;
    reneg_responder reneg_resp_;
    std::optional<diffserv::token_bucket> reneg_bucket_;
    std::uint64_t reneg_rate_limited_ = 0;
    std::uint32_t renegotiations_ = 0;
    event_ring events_;
};

} // namespace vtp::qtp
