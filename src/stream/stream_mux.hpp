// Stream multiplexer: per-stream sender state and receive-side demux.
//
// `stream_mux` owns the sender half: up to stream::max_streams outbound
// streams, each with its own byte space, SACK scoreboard, retransmission
// queue, message framing and reliability mode. connection_sender asks it
// to fill each TFRC-paced send slot (next_payload); the embedded
// stream_scheduler arbitrates between streams, and all per-stream
// reliability bookkeeping (scoreboard recording, SACK ingestion, expiry)
// happens here. Sequence numbers stay connection-wide — every stream's
// scoreboard sees the same SACK feedback and simply skips sequences it
// did not send.
//
// `stream_demux` owns the receiver half: one sack::reassembly per stream,
// created on first frame with the delivery order the frame's reliability
// bits call for, parking delivered payload as timestamped chunks for
// recv(). Stream 0 is created eagerly with the negotiated connection
// profile.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sack/reassembly.hpp"
#include "sack/retransmit.hpp"
#include "sack/scoreboard.hpp"
#include "stream/stream.hpp"
#include "stream/stream_scheduler.hpp"

namespace vtp::stream {

/// Sender-side state of one stream (owned by stream_mux).
class outbound_stream {
public:
    outbound_stream(std::uint32_t id, stream_options opts, std::uint64_t total_bytes,
                    bool open, sack::scoreboard_config sb_cfg);

    std::uint32_t id() const { return id_; }
    const stream_options& options() const { return opts_; }

    /// Reliability this stream actually runs, given the connection
    /// profile's current mode (follow_profile streams track it).
    sack::reliability_mode effective_mode(sack::reliability_mode profile_mode) const {
        return opts_.follow_profile ? profile_mode : opts_.reliability;
    }

    /// Grow the stream by `n` bytes (pre-bounded by the mux). No-op on a
    /// finished or unlimited stream.
    void offer(std::uint64_t n);
    /// Stash the real payload backing the `n` bytes just offered (they
    /// start at stream offset total_bytes() - n). The buffer retains
    /// bytes until no retransmission can ever need them again
    /// (trim_tx_buffer); a stream that only ever offers lengths never
    /// allocates here — the length-only fast path.
    void append_payload(const std::uint8_t* data, std::uint64_t n);
    /// Copy [offset, offset+len) of buffered payload into `out`
    /// (pre-zeroed by the caller); returns bytes actually copied. 0 on
    /// length-only streams. Shortfalls on a payload stream are counted
    /// (payload_miss_bytes) — they mean the buffer was released early.
    std::uint32_t fetch_payload(std::uint64_t offset, std::uint32_t len,
                                std::uint8_t* out);
    /// Release buffered payload no future (re)transmission can reference:
    /// everything below min(next unsent offset, lowest outstanding
    /// transmission, lowest queued retransmission).
    void trim_tx_buffer(sack::reliability_mode mode);
    bool carries_payload() const { return carries_payload_; }
    /// Payload bytes currently held for (re)transmission.
    std::uint64_t tx_payload_bytes() const { return tx_end_ - tx_begin_; }
    /// Send-buffer blocks currently allocated (live plus the spare).
    std::size_t tx_blocks_held() const { return tx_blocks_.size() + (tx_spare_ ? 1 : 0); }
    std::uint64_t payload_miss_bytes() const { return payload_miss_bytes_; }
    /// No more bytes will be offered.
    void finish() { open_ = false; }

    bool open() const { return open_; }
    bool unlimited() const { return total_bytes_ == UINT64_MAX; }
    std::uint64_t total_bytes() const { return total_bytes_; }
    std::uint64_t next_offset() const { return next_offset_; }
    /// Offered but not yet first-transmitted.
    std::uint64_t buffered_bytes() const {
        return unlimited() ? 0 : total_bytes_ - next_offset_;
    }

    const sack::scoreboard& reliability() const { return scoreboard_; }
    const sack::retransmit_queue& retransmissions() const { return rtx_queue_; }
    std::uint64_t rtx_bytes_sent() const { return rtx_bytes_sent_; }

    /// First byte the scoreboard is accountable for (reset when a
    /// profile renegotiation flips this stream's reliability mode).
    std::uint64_t reliable_from_offset() const { return reliable_from_offset_; }
    void reset_reliable_from() { reliable_from_offset_ = next_offset_; }

    bool has_new_data() const { return next_offset_ < total_bytes_; }
    /// A zero-payload end-of-stream marker is owed (the stream finished
    /// after its last byte went out, so no data segment carried the flag).
    bool eos_marker_pending() const {
        return !open_ && was_open_ && !unlimited() && next_offset_ >= total_bytes_ &&
               !eos_sent_;
    }
    bool has_work(sack::reliability_mode mode) const {
        if (mode != sack::reliability_mode::none && !rtx_queue_.empty()) return true;
        return has_new_data() || eos_marker_pending();
    }

    /// Earliest delivery deadline among pending work, for scheduler
    /// promotion (util::time_never when none is at risk).
    util::sim_time earliest_deadline() const;

    /// Fill one send slot from this stream: a policy-filtered
    /// retransmission first, then new bytes, then a pending end-of-stream
    /// marker. Advances offsets/framing; the scoreboard entry is recorded
    /// here when `mode` tracks reliability. Returns nullopt when every
    /// pending retransmission turned out expired and no new data remains.
    std::optional<payload_pick> next_payload(util::sim_time now,
                                             const sack::reliability_policy& policy,
                                             sack::reliability_mode mode,
                                             std::uint64_t seq, std::uint32_t packet_size);

    /// Ingest connection-wide SACK feedback: newly finalised losses of
    /// this stream are queued for retransmission under `policy`.
    void on_sack(const packet::sack_feedback_segment& fb,
                 const sack::reliability_policy& policy);

    /// Everything this stream owes has been delivered under `mode`
    /// (never true for an unlimited or still-open stream).
    bool done(sack::reliability_mode mode) const;

    stream_info info(sack::reliability_mode profile_mode) const;

private:
    std::uint32_t id_;
    stream_options opts_;
    std::uint64_t total_bytes_;
    bool open_;
    const bool was_open_; ///< application-driven stream (offer/finish)
    bool eos_sent_ = false;

    std::uint64_t next_offset_ = 0;
    std::uint64_t reliable_from_offset_ = 0;
    std::uint32_t current_message_id_ = 0;
    util::sim_time current_message_deadline_ = util::time_never;

    sack::scoreboard scoreboard_;
    sack::retransmit_queue rtx_queue_;
    std::uint64_t rtx_bytes_sent_ = 0;

    /// Append `n` bytes at tx_end_ (zeroes when `data` is null).
    void tx_write(const std::uint8_t* data, std::uint64_t n);
    /// Free every block (the spare too) and restart empty at `offset`.
    void tx_release(std::uint64_t offset);

    /// Payload retention window: stream bytes [tx_begin_, tx_end_) live
    /// in fixed blocks, the first of which starts at stream offset
    /// tx_block_base_. Blocks are freed as trim_tx_buffer passes them,
    /// so the buffer holds no more than the live bytes plus one block
    /// either side; one passed block is kept as a spare for the tail.
    static constexpr std::size_t tx_block_size = 16 * 1024;
    std::vector<std::unique_ptr<std::uint8_t[]>> tx_blocks_;
    std::unique_ptr<std::uint8_t[]> tx_spare_;
    std::uint64_t tx_block_base_ = 0;
    std::uint64_t tx_begin_ = 0;
    std::uint64_t tx_end_ = 0;
    bool carries_payload_ = false;
    std::uint64_t payload_miss_bytes_ = 0;
};

/// Sender-side multiplexer (owned by connection_sender).
class stream_mux {
public:
    /// Constructs with stream 0 in place: `total_bytes`/`open` mirror the
    /// legacy connection_config source fields, `stream0_opts` its message
    /// framing; stream 0 always follows the connection profile.
    stream_mux(stream_options stream0_opts, std::uint64_t total_bytes, bool open,
               sack::scoreboard_config sb_cfg, stream_scheduler_config sched_cfg = {});

    /// The connection profile's reliability (applies to follow_profile
    /// streams); updated on establishment and every renegotiation. A mode
    /// change resets the affected streams' scoreboard coverage boundary.
    void set_profile_mode(sack::reliability_mode mode);
    sack::reliability_mode profile_mode() const { return profile_mode_; }

    /// Open a new stream; returns its id or invalid_stream when the
    /// connection is out of ids. Streams are application-driven (offer /
    /// finish).
    std::uint32_t open_stream(const stream_options& opts);

    /// Append up to `n` bytes to stream `id`; bounded so the total
    /// backlog (offered but unsent, across all streams) never exceeds
    /// `max_buffered` (0 = unlimited). Returns the accepted count.
    std::uint64_t offer(std::uint32_t id, std::uint64_t n, std::uint64_t max_buffered);
    /// Same bound, but carrying real application bytes: the accepted
    /// prefix of `data` is retained for (re)transmission.
    std::uint64_t offer_bytes(std::uint32_t id, const std::uint8_t* data,
                              std::uint64_t n, std::uint64_t max_buffered);
    /// Copy the payload backing `pick` into `out` (length pick.payload_len,
    /// pre-zeroed); returns bytes copied (0 = length-only stream).
    std::uint32_t fetch_payload(const payload_pick& pick, std::uint8_t* out);
    /// Any stream holds real payload (i.e. segments should carry bytes).
    bool any_payload() const;
    std::uint64_t payload_miss_bytes_total() const;
    void finish(std::uint32_t id);
    /// Half-close: finish every stream (legacy close()).
    void finish_all();

    outbound_stream* find(std::uint32_t id);
    const outbound_stream* find(std::uint32_t id) const;
    outbound_stream& stream0() { return *streams_.front(); }
    const outbound_stream& stream0() const { return *streams_.front(); }
    std::size_t stream_count() const { return streams_.size(); }

    bool any_open() const;
    /// Any stream holds payload work (rtx / new bytes / eos marker).
    bool has_payload_work() const;
    /// A reliable stream still has unfinalised transmissions in flight:
    /// the connection must keep probing so the tail can finalise.
    bool probe_needed() const;
    /// Every finite stream is finished and complete under its policy.
    bool all_done() const;
    std::uint64_t buffered_bytes() const;

    /// Pick the stream for the next send slot and cut its payload.
    /// `seq` is the connection sequence number this transmission will use.
    std::optional<payload_pick> next_payload(util::sim_time now, const send_policy& pol,
                                             std::uint64_t seq);

    /// Feed connection-wide SACK feedback to every stream's scoreboard
    /// (also releases payload-buffer prefixes no longer reachable).
    void on_sack(const packet::sack_feedback_segment& fb, const send_policy& pol);

    /// Release stream `id`'s payload buffer after a transmission (the
    /// mode-none path, where no SACK will ever arrive to trigger it).
    void trim_after_send(std::uint32_t id);

    std::uint64_t rtx_bytes_sent_total() const;
    std::vector<stream_info> infos() const;
    const stream_scheduler& scheduler() const { return sched_; }
    /// Wire the connection's flight recorder into the scheduler's
    /// promotion decisions (null disables).
    void set_tracer(trace::tracer* t) { sched_.set_tracer(t); }

private:
    sack::reliability_policy policy_for(const outbound_stream& s,
                                        const send_policy& pol) const;

    std::vector<std::unique_ptr<outbound_stream>> streams_; ///< index == id
    sack::scoreboard_config sb_cfg_;
    stream_scheduler sched_;
    sack::reliability_mode profile_mode_ = sack::reliability_mode::none;
};

/// Receive-side demultiplexer (owned by connection_receiver).
///
/// Payload-carrying frames are staged until the stream's reassembly
/// releases them, then parked as ready_chunks for recv(). Length-only
/// frames advance the reassembly and park nothing.
class stream_demux {
public:
    /// What one frame did (drives the receiver's event emission).
    struct frame_result {
        bool opened = false;          ///< first frame of a new stream
        bool became_readable = false; ///< ready store went empty -> non-empty
        bool finished = false;        ///< stream is now complete (fin)
        sack::delivered_range delivered{};
    };

    /// `stream0_order` is the delivery order negotiated for the
    /// connection profile (ordered under full reliability).
    explicit stream_demux(sack::delivery_order stream0_order);

    /// Data for stream `id`, [offset, offset+len). Unknown streams are
    /// created with the delivery order `mode` implies (full -> ordered).
    /// `payload` is the frame's application bytes (null on length-only
    /// frames); `now` stamps delivered chunks.
    frame_result on_frame(std::uint32_t id, sack::reliability_mode mode,
                          std::uint64_t offset, std::uint32_t len, bool end_of_stream,
                          const std::uint8_t* payload, util::sim_time now);

    // --- recv() side -----------------------------------------------------
    /// Drain up to `cap` buffered payload bytes of stream `id` in
    /// delivery order. Returns 0 when nothing is buffered.
    std::size_t read(std::uint32_t id, std::uint8_t* out, std::size_t cap);
    /// Pop one whole delivered chunk (delivery metadata + bytes); the
    /// unconsumed remainder of a partially read() chunk counts as the
    /// front chunk. Returns false when the stream has nothing buffered.
    bool pop_chunk(std::uint32_t id, ready_chunk& out);
    /// Pop the next chunk of the lowest-id stream holding one. Drain to
    /// empty per call site (a bounded-pops-per-tick consumer would
    /// starve higher stream ids).
    bool pop_chunk_any(std::uint32_t& id_out, ready_chunk& out);
    /// Return a just-popped chunk to the front of its stream's queue
    /// (the export path could not hand it off; it must not be lost).
    void unpop_chunk(std::uint32_t id, ready_chunk&& chunk);
    /// Payload bytes buffered for recv() on stream `id` / in total.
    std::uint64_t readable_bytes(std::uint32_t id) const;
    /// Re-arm the readable edge after the emitted event was lost to a
    /// full queue (the next delivered chunk raises it again).
    void clear_readable_signal(std::uint32_t id);
    std::uint64_t buffered_payload_bytes() const { return buffered_payload_; }
    /// Cap on buffered_payload_bytes() — ready chunks *and* staged
    /// out-of-order payload combined: bytes arriving beyond it are
    /// dropped and counted, never silently absorbed (0 = unlimited).
    void set_store_limit(std::uint64_t bytes) { store_limit_ = bytes; }
    std::uint64_t payload_dropped_bytes() const { return payload_dropped_; }

    const sack::reassembly& stream0() const { return streams_.at(0)->ra; }
    const sack::reassembly* find(std::uint32_t id) const;
    std::size_t stream_count() const { return streams_.size(); }
    std::uint64_t delivered_bytes_total() const;
    std::size_t state_bytes() const;

private:
    struct inbound_stream {
        explicit inbound_stream(sack::delivery_order order) : ra(order) {}
        sack::reassembly ra;
        /// Ordered mode: payload of frames not yet contiguous, keyed by
        /// stream offset.
        std::map<std::uint64_t, std::vector<std::uint8_t>> staged;
        std::deque<ready_chunk> ready;
        std::size_t front_consumed = 0; ///< bytes read() off ready.front()
        bool readable_signalled = false;
        bool fin_reported = false;
    };

    inbound_stream& entry_at(std::uint32_t id, sack::delivery_order order, bool& created);
    void release_staged_prefix(inbound_stream& s, std::uint64_t upto);
    /// Stage one out-of-order payload frame under the store cap; false =
    /// dropped (counted).
    bool stage_payload(inbound_stream& s, std::uint64_t offset,
                       const std::uint8_t* payload, std::uint32_t len);
    /// Assemble [offset, offset+len) from staged payload, consuming it.
    std::vector<std::uint8_t> extract_staged(inbound_stream& s, std::uint64_t offset,
                                             std::uint64_t len);
    bool store_chunk(inbound_stream& s, std::uint64_t offset,
                     std::vector<std::uint8_t>&& bytes, util::sim_time now);

    std::map<std::uint32_t, std::unique_ptr<inbound_stream>> streams_;
    std::uint64_t buffered_payload_ = 0;
    std::uint64_t store_limit_ = 0;
    std::uint64_t payload_dropped_ = 0;
};

} // namespace vtp::stream
