// Composed QTP connection endpoints.
//
// `connection_sender` and `connection_receiver` assemble the
// micro-mechanisms — congestion control behind the pluggable
// send-algorithm interface (cc::send_algorithm: TFRC, NewReno or
// Westwood), loss estimation at either end (tfrc::loss_history /
// tfrc::sender_estimator), and SACK reliability (sack::scoreboard +
// sack::retransmit_queue / sack::reassembly) — according to the profile
// negotiated at handshake.
// The profile is not frozen there: either endpoint may call
// request_renegotiate() mid-connection; the reneg/reneg_ack exchange
// (core/negotiation.hpp) runs the proposal through the peer's
// capabilities and both sides swap micro-mechanisms at the acknowledged
// sequence boundary. What both roles share — events, tracing, the
// renegotiation exchange, the path manager — lives in their common base,
// endpoint_core (core/endpoint.hpp). Most applications should use the vtp::session /
// vtp::server facade in api/session.hpp instead of these classes.
//
// Data flow, sender side:
//   pacing timer (rate from the cc algorithm) -> stream::stream_mux picks the stream
//   for this slot (weighted round-robin, deadline promotion) and cuts its
//   payload = that stream's retransmission-queue front (policy-filtered)
//   or new stream bytes -> data / data_stream segment with a fresh
//   connection-wide sequence number -> per-stream scoreboard + (QTPlight)
//   estimator record. Stream 0 is the legacy single stream; open_stream()
//   adds more, each with its own reliability mode, weight and deadline.
// Feedback path:
//   SACK feedback -> estimator (sender-side p) or embedded p (receiver
//   side) -> rate controller; SACK blocks -> scoreboard -> lost ranges ->
//   retransmission queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>

#include "cc/ack_tracker.hpp"
#include "cc/send_algorithm.hpp"
#include "core/endpoint.hpp"
#include "path/scheduler.hpp"
#include "sack/reassembly.hpp"
#include "sack/retransmit.hpp"
#include "stream/stream_mux.hpp"
#include "tfrc/loss_history.hpp"

namespace vtp::qtp {

class connection_sender : public endpoint_core {
public:
    /// Cap on one pacing slot, in base bursts (environment::send_burst):
    /// a late slot sends at most this many bursts, lateness credit
    /// included.
    static constexpr std::uint32_t max_slot_bursts = 4;

    explicit connection_sender(connection_config cfg);

    void start(environment& env) override;
    void on_packet(const packet::packet& pkt) override;
    std::string name() const override { return "qtp-send"; }

    /// Append `n` bytes to stream 0 (application write; only meaningful
    /// with cfg.stream_open). Returns how many bytes were accepted
    /// (bounded by cfg.max_buffered_bytes).
    std::uint64_t offer(std::uint64_t n) { return offer(0, n); }
    /// Append `n` bytes to stream `id`; returns the accepted count.
    std::uint64_t offer(std::uint32_t stream_id, std::uint64_t n);
    /// Append real application bytes to stream `id`: the accepted prefix
    /// is carried end-to-end in data segments and retained until no
    /// retransmission can need it. A clamped return arms the writable
    /// event for when buffer space frees up.
    std::uint64_t offer_bytes(std::uint32_t stream_id, const std::uint8_t* data,
                              std::uint64_t n);
    /// Buffer space available without clamping (true when unlimited).
    bool writable() const;
    /// No more bytes will be offered on any stream; the FIN handshake may
    /// begin once everything offered is delivered.
    void finish_stream();
    /// Half-close one stream (its end-of-stream marker goes out once the
    /// last offered byte has been transmitted).
    void finish_stream(std::uint32_t stream_id);

    /// Open an additional application stream multiplexed on this
    /// connection. Returns the stream id, or stream::invalid_stream when
    /// the connection is closing or out of ids (256 per connection).
    std::uint32_t open_stream(const stream::stream_options& opts);

    /// First sequence number governed by the latest accepted profile.
    std::uint64_t last_reneg_boundary() const { return last_reneg_boundary_; }

    /// Validate `remote` end to end and switch the transmit path to it
    /// once proven (path_changed event). `remote == 0` (or the current
    /// peer) re-probes the active 4-tuple — the client-after-rebind
    /// case. No-op unless cfg.path.enabled.
    void migrate(std::uint32_t remote);
    /// Probe `remote` as an additional send path; once validated the
    /// dual-path scheduler starts steering to it (cfg.path.multipath).
    void add_path(std::uint32_t remote);

    /// The active congestion controller (selected at handshake, swapped
    /// by renegotiation).
    const cc::send_algorithm& cc() const { return *cc_; }
    /// Mid-flow congestion-controller swaps applied so far.
    std::uint32_t cc_swaps() const { return cc_swaps_; }
    /// Stream 0's scoreboard (legacy single-stream accessor).
    const sack::scoreboard& reliability() const { return mux_.stream0().reliability(); }
    /// Stream 0's retransmission queue (legacy single-stream accessor).
    const sack::retransmit_queue& retransmissions() const {
        return mux_.stream0().retransmissions();
    }
    const tfrc::sender_estimator& estimator() const { return estimator_; }
    /// The multiplexer: per-stream scoreboards, queues and accounting.
    const stream::stream_mux& mux() const { return mux_; }
    std::vector<stream::stream_info> stream_infos() const { return mux_.infos(); }

    std::uint64_t packets_sent() const { return packets_sent_; }
    std::uint64_t bytes_sent() const { return bytes_sent_; }
    std::uint64_t new_bytes_sent() const { return mux_.stream0().next_offset(); }
    /// Current stream 0 length: total_bytes, grown by offer() when
    /// application-driven (UINT64_MAX = unlimited synthetic source).
    std::uint64_t stream_length() const { return mux_.stream0().total_bytes(); }
    /// Retransmitted bytes across all streams.
    std::uint64_t rtx_bytes_sent() const { return mux_.rtx_bytes_sent_total(); }
    std::uint64_t probes_sent() const { return probes_sent_; }
    /// Full-reliability completion: every stream byte acknowledged.
    bool transfer_complete() const;
    bool fin_sent() const { return fin_sent_; }
    /// Stateless-retry rounds answered (listener address validation).
    std::uint64_t syn_retries_received() const { return syn_retries_received_; }

private:
    /// Everything from our next transmission on runs an accepted profile.
    std::uint64_t reneg_boundary() const override { return next_seq_; }
    bool on_peer_proposal() override;
    void apply_profile(const profile& p, std::uint64_t boundary_seq) override;
    void tracer_changed() override { mux_.set_tracer(tracer_.get()); }

    void send_syn();
    void on_handshake(const packet::handshake_segment& seg);
    void on_sack_feedback(const packet::sack_feedback_segment& fb);
    /// One pacing slot. `late` is how far past its deadline the armed
    /// pacing timer fired (0 for every other caller): it earns credit.
    void send_next(util::sim_time late = 0);
    /// One slot's transmission: 0 = nothing to send, 1 = stream payload,
    /// 2 = probe/eos marker (pace these at RTT/4, never in a burst).
    int send_one();
    void schedule_next_send(std::uint32_t just_sent = 1);
    void arm_nofeedback_timer();
    bool work_available() const;
    stream::send_policy send_policy_now() const;
    void after_finish();
    void maybe_begin_close();
    void send_fin();
    void maybe_emit_writable();
    /// Build the cc::algorithm_config for the current connection config
    /// with gTFRC floor `floor_bps`.
    cc::algorithm_config cc_config(double floor_bps) const;

    handshake_initiator handshake_;

    /// The pluggable congestion controller (cc/send_algorithm.hpp); the
    /// pacing loop reads only this interface. TFRC's adapter is
    /// byte-identical to the rate_controller it wraps.
    std::unique_ptr<cc::send_algorithm> cc_;
    /// Flight/ack bookkeeping feeding acked/lost vectors to cc_. Passive
    /// (no timers), so it is invisible to the deterministic scheduler.
    cc::ack_tracker tracker_;
    tfrc::sender_estimator estimator_;
    /// All per-stream sender state: byte spaces, scoreboards,
    /// retransmission queues, framing, and the slot scheduler.
    stream::stream_mux mux_;

    std::uint64_t next_seq_ = 0;

    qtp::timer_id send_timer_ = qtp::no_timer;
    qtp::timer_id nofeedback_timer_ = qtp::no_timer;
    qtp::timer_id handshake_timer_ = qtp::no_timer;
    qtp::timer_id fin_timer_ = qtp::no_timer;
    bool fin_sent_ = false;
    int fin_attempts_ = 0;

    /// Address-validation cookie from the listener's retry; echoed in
    /// every subsequent SYN (0 = none yet).
    std::uint64_t retry_cookie_ = 0;
    std::uint64_t syn_retries_received_ = 0;
    bool tx_blocked_ = false; ///< an offer was clamped; writable pending

    /// Dual-path steering over the core's path manager.
    path::scheduler path_sched_;

    std::uint64_t packets_sent_ = 0;
    std::uint64_t bytes_sent_ = 0;
    std::uint64_t probes_sent_ = 0;
    std::uint64_t last_reneg_boundary_ = 0;
    std::uint32_t cc_swaps_ = 0;
};

class connection_receiver : public endpoint_core {
public:
    explicit connection_receiver(connection_config cfg);
    ~connection_receiver() override { leave_half_open(); }

    void start(environment& env) override;
    void on_packet(const packet::packet& pkt) override;
    std::string name() const override { return "qtp-recv"; }

    /// Read up to `cap` delivered payload bytes of stream `stream_id` in
    /// delivery order; 0 when nothing is buffered (drain until 0 after a
    /// readable event — it is edge-triggered).
    std::size_t recv(std::uint32_t stream_id, std::uint8_t* out, std::size_t cap);
    /// Pop one delivered chunk with its delivery metadata (offset and
    /// substrate timestamp) — the trace-faithful consumption the
    /// conformance harness uses.
    bool recv_chunk(std::uint32_t& stream_id_out, stream::ready_chunk& out);
    /// Payload bytes buffered for recv() / dropped on a full buffer.
    std::uint64_t recv_buffered_bytes() const;
    std::uint64_t recv_dropped_bytes() const;

    /// Stream 0's reassembly (legacy single-stream accessor).
    const sack::reassembly& stream() const { return demux_->stream0(); }
    /// The demultiplexer (per-stream reassembly); null until established.
    const stream::stream_demux* demux() const { return demux_.get(); }
    const tfrc::loss_history& history() const { return history_; }
    /// The handshake deadline fired: the peer never proved liveness and
    /// this endpoint closed itself for reaping (half-open flood fix).
    bool handshake_timed_out() const { return handshake_timed_out_; }

    /// Bind an owner-maintained half-open gauge (the engine's per-shard
    /// counter). Increments it if this receiver is currently half-open
    /// (no data yet, not closed) and decrements exactly once when it
    /// leaves that state — first payload packet, FIN, handshake
    /// deadline, or destruction — so the gauge tracks half-open
    /// population incrementally instead of by O(sessions) recount.
    /// Updates happen only on the owning shard thread; the atomic
    /// exists for cross-thread readers.
    void set_half_open_gauge(std::atomic<std::uint64_t>* g);

    std::uint64_t received_packets() const { return received_packets_; }
    std::uint64_t received_bytes() const { return received_bytes_; }
    /// Most recent RTT estimate announced by the sender in its data
    /// segments (the feedback-interval clock; 100 ms until data arrives).
    util::sim_time rtt_hint() const { return last_rtt_hint_; }
    /// Data segments rejected for a sequence number absurdly beyond the
    /// receive window (decoder-accepted corruption / hostile input).
    std::uint64_t wild_seq_rejected() const { return wild_seq_rejected_; }
    std::uint64_t feedback_sent() const { return feedback_sent_; }
    std::uint64_t feedback_bytes() const { return feedback_bytes_; }
    /// Resident per-connection state (E4 memory metric).
    std::size_t state_bytes() const;

private:
    /// The sender states its own boundary in the data stream; ours is
    /// the next unseen sequence number.
    std::uint64_t reneg_boundary() const override {
        return ranges_.empty() ? 0 : ranges_.back().end;
    }
    bool on_peer_proposal() override;
    void apply_profile(const profile& p, std::uint64_t boundary_seq) override;
    void sink_attached() override { export_chunks(); }

    void on_handshake(const packet::handshake_segment& seg);
    void on_data(const packet::data_segment& seg);
    void on_stream_data(const packet::data_stream_segment& seg);
    /// Shared per-packet path of both data kinds: sequence bookkeeping,
    /// loss estimation, reassembly (through the demux) and feedback.
    void ingest_data(std::uint64_t seq, util::sim_time ts, util::sim_time rtt_estimate,
                     std::uint32_t stream_id, sack::reliability_mode mode,
                     std::uint64_t offset, std::uint32_t len, bool end_of_stream,
                     const std::uint8_t* payload);
    /// Sink mode: hand buffered chunks to the sink; a full export ring
    /// leaves the remainder parked for the next delivery/feedback tick.
    void export_chunks();
    void record_seq(std::uint64_t seq);
    void send_feedback();
    void arm_feedback_timer();
    void on_handshake_deadline();
    void cancel_handshake_deadline();

    handshake_responder responder_;

    std::unique_ptr<stream::stream_demux> demux_;
    tfrc::loss_history history_; ///< used only with receiver-side estimation

    std::deque<packet::sack_block> ranges_; ///< merged received seq ranges
    util::sim_time last_rtt_hint_ = util::milliseconds(100);
    util::sim_time last_data_ts_ = 0;
    util::sim_time last_data_arrival_ = 0;
    std::uint64_t bytes_since_feedback_ = 0;
    std::uint64_t packets_since_feedback_ = 0;
    util::sim_time last_feedback_at_ = 0;
    qtp::timer_id feedback_timer_ = qtp::no_timer;
    qtp::timer_id handshake_deadline_timer_ = qtp::no_timer;
    bool seen_data_ = false;
    bool handshake_timed_out_ = false;
    /// Decrement the bound half-open gauge once (idempotent).
    void leave_half_open();
    std::atomic<std::uint64_t>* half_open_gauge_ = nullptr;

    std::uint64_t received_packets_ = 0;
    std::uint64_t received_bytes_ = 0;
    std::uint64_t wild_seq_rejected_ = 0;
    std::uint64_t feedback_sent_ = 0;
    std::uint64_t feedback_bytes_ = 0;
};

} // namespace vtp::qtp
