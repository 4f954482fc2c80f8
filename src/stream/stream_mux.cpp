#include "stream/stream_mux.hpp"

#include <algorithm>

namespace vtp::stream {

// ---------------------------------------------------------------------------
// outbound_stream
// ---------------------------------------------------------------------------

outbound_stream::outbound_stream(std::uint32_t id, stream_options opts,
                                 std::uint64_t total_bytes, bool open,
                                 sack::scoreboard_config sb_cfg)
    : id_(id), opts_(opts), total_bytes_(total_bytes), open_(open), was_open_(open),
      scoreboard_(sb_cfg) {
    if (opts_.weight == 0) opts_.weight = 1;
}

void outbound_stream::offer(std::uint64_t n) {
    if (!open_ || unlimited()) return;
    total_bytes_ += n;
}

void outbound_stream::append_payload(const std::uint8_t* data, std::uint64_t n) {
    if (n == 0) return;
    const std::uint64_t start = total_bytes_ - n; // offer() already grew the stream
    if (tx_payload_bytes() == 0) {
        tx_release(start); // empty buffer: re-anchor at the new range
    } else if (start != tx_end_) {
        // A synthetic offer() interleaved with payload offers left a
        // hole whose bytes were never provided. Zero-pad small holes so
        // pending real bytes stay transmittable; a large hole (bulk
        // synthetic interleave) restarts the buffer — the discarded
        // pending bytes and the hole both read back as zeroes and are
        // counted (payload_miss_bytes).
        constexpr std::uint64_t max_pad = 64 * 1024;
        const std::uint64_t gap = start > tx_end_ ? start - tx_end_ : UINT64_MAX;
        if (gap <= max_pad) {
            // The padded hole transmits as zeroes: count it like any
            // other byte the buffer could not truly provide.
            payload_miss_bytes_ += gap;
            tx_write(nullptr, gap);
        } else {
            payload_miss_bytes_ += tx_payload_bytes();
            tx_release(start);
        }
    }
    carries_payload_ = true;
    tx_write(data, n);
}

void outbound_stream::tx_write(const std::uint8_t* data, std::uint64_t n) {
    while (n > 0) {
        const std::uint64_t pos = tx_end_ - tx_block_base_;
        const std::size_t index = static_cast<std::size_t>(pos / tx_block_size);
        const std::size_t at = static_cast<std::size_t>(pos % tx_block_size);
        if (index == tx_blocks_.size())
            tx_blocks_.push_back(
                tx_spare_ ? std::move(tx_spare_)
                          : std::make_unique_for_overwrite<std::uint8_t[]>(tx_block_size));
        const auto take =
            static_cast<std::size_t>(std::min<std::uint64_t>(n, tx_block_size - at));
        std::uint8_t* dst = tx_blocks_[index].get() + at;
        if (data != nullptr) {
            std::copy_n(data, take, dst);
            data += take;
        } else {
            std::fill_n(dst, take, 0);
        }
        n -= take;
        tx_end_ += take;
    }
}

void outbound_stream::tx_release(std::uint64_t offset) {
    tx_blocks_.clear();
    tx_spare_.reset();
    tx_block_base_ = tx_begin_ = tx_end_ = offset;
}

std::uint32_t outbound_stream::fetch_payload(std::uint64_t offset, std::uint32_t len,
                                             std::uint8_t* out) {
    if (!carries_payload_ || len == 0) return 0;
    const std::uint64_t lo = std::max<std::uint64_t>(offset, tx_begin_);
    const std::uint64_t hi = std::min<std::uint64_t>(offset + len, tx_end_);
    std::uint32_t copied = 0;
    for (std::uint64_t at = lo; at < hi;) {
        const std::uint64_t pos = at - tx_block_base_;
        const std::size_t in_block = static_cast<std::size_t>(pos % tx_block_size);
        const auto take = static_cast<std::size_t>(
            std::min<std::uint64_t>(hi - at, tx_block_size - in_block));
        std::copy_n(tx_blocks_[static_cast<std::size_t>(pos / tx_block_size)].get() +
                        in_block,
                    take, out + (at - offset));
        at += take;
        copied += static_cast<std::uint32_t>(take);
    }
    if (copied < len) payload_miss_bytes_ += len - copied;
    return copied;
}

void outbound_stream::trim_tx_buffer(sack::reliability_mode mode) {
    if (!carries_payload_ || tx_payload_bytes() == 0) return;
    // Safe release point: nothing below it can ever be (re)transmitted —
    // it is behind the next unsent byte, every unfinalised transmission
    // and every queued retransmission. Under mode none nothing is
    // tracked, so only unsent bytes are retained.
    std::uint64_t safe = next_offset_;
    if (mode != sack::reliability_mode::none) {
        safe = std::min(safe, scoreboard_.min_outstanding_offset());
        safe = std::min(safe, rtx_queue_.min_pending_offset());
    }
    if (safe <= tx_begin_) return;
    tx_begin_ = std::min(safe, tx_end_);
    if (tx_begin_ == tx_end_) {
        // Drained: hold nothing, not even a spare, until the next offer.
        tx_release(tx_end_);
        return;
    }
    const auto passed = static_cast<std::size_t>((tx_begin_ - tx_block_base_) / tx_block_size);
    if (passed == 0) return;
    if (!tx_spare_) tx_spare_ = std::move(tx_blocks_.front());
    tx_blocks_.erase(tx_blocks_.begin(),
                     tx_blocks_.begin() + static_cast<std::ptrdiff_t>(passed));
    tx_block_base_ += static_cast<std::uint64_t>(passed) * tx_block_size;
}

util::sim_time outbound_stream::earliest_deadline() const {
    util::sim_time earliest = rtx_queue_.earliest_deadline();
    // A message already on the wire keeps its deadline for the bytes of
    // it still unsent; a not-yet-started message cannot be late (its
    // clock starts at first transmission).
    if (has_new_data() && opts_.message_size > 0 &&
        current_message_deadline_ != util::time_never &&
        next_offset_ % opts_.message_size != 0 &&
        current_message_deadline_ < earliest)
        earliest = current_message_deadline_;
    return earliest;
}

std::optional<payload_pick> outbound_stream::next_payload(
    util::sim_time now, const sack::reliability_policy& policy,
    sack::reliability_mode mode, std::uint64_t seq, std::uint32_t packet_size) {
    payload_pick pick;
    pick.stream_id = id_;
    pick.mode = mode;

    // Retransmissions first (within this stream's turn).
    if (mode != sack::reliability_mode::none) {
        if (auto rec = rtx_queue_.pop(now, policy)) {
            pick.byte_offset = rec->byte_offset;
            pick.payload_len = rec->length;
            pick.message_id = rec->message_id;
            pick.deadline = rec->deadline;
            pick.is_retransmission = true;
            rtx_bytes_sent_ += rec->length;

            sack::transmission_record again = *rec;
            again.seq = seq;
            again.sent_at = now;
            ++again.transmit_count;
            scoreboard_.record(again);
            return pick;
        }
    }

    if (has_new_data()) {
        const std::uint32_t len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(packet_size, total_bytes_ - next_offset_));
        pick.byte_offset = next_offset_;
        pick.payload_len = len;
        pick.end_of_stream =
            next_offset_ + len >= total_bytes_ && !unlimited() && !open_;

        if (opts_.message_size > 0) {
            const std::uint32_t msg =
                static_cast<std::uint32_t>(next_offset_ / opts_.message_size);
            if (msg != current_message_id_ ||
                current_message_deadline_ == util::time_never) {
                current_message_id_ = msg;
                current_message_deadline_ = opts_.message_deadline == util::time_never
                                                ? util::time_never
                                                : now + opts_.message_deadline;
            }
            pick.message_id = msg;
            pick.deadline = current_message_deadline_;
        }

        next_offset_ += len;
        if (pick.end_of_stream) eos_sent_ = true;

        if (mode != sack::reliability_mode::none) {
            sack::transmission_record rec;
            rec.seq = seq;
            rec.byte_offset = pick.byte_offset;
            rec.length = pick.payload_len;
            rec.message_id = pick.message_id;
            rec.deadline = pick.deadline;
            rec.sent_at = now;
            scoreboard_.record(rec);
        }
        return pick;
    }

    if (eos_marker_pending()) {
        // Zero-payload marker announcing the final stream length.
        pick.byte_offset = next_offset_;
        pick.payload_len = 0;
        pick.end_of_stream = true;
        eos_sent_ = true;
        return pick;
    }

    return std::nullopt; // only expired retransmissions were pending
}

void outbound_stream::on_sack(const packet::sack_feedback_segment& fb,
                              const sack::reliability_policy& policy) {
    std::vector<sack::transmission_record> lost;
    scoreboard_.on_sack(fb, lost);
    for (const auto& rec : lost) rtx_queue_.push(rec, policy);
}

bool outbound_stream::done(sack::reliability_mode mode) const {
    if (open_ || unlimited()) return false;
    if (mode == sack::reliability_mode::full) {
        if (next_offset_ < total_bytes_) return false;
        // Only bytes sent while reliability was active gate completion.
        if (reliable_from_offset_ >= total_bytes_) return true;
        return scoreboard_.delivered().contains(reliable_from_offset_, total_bytes_);
    }
    // Under mode none the retransmission queue is dead weight — nothing
    // pops or refills it (a full/partial -> none renegotiation may leave
    // entries behind) — so it must not gate completion.
    if (mode == sack::reliability_mode::none) return next_offset_ >= total_bytes_;
    return next_offset_ >= total_bytes_ && rtx_queue_.empty();
}

stream_info outbound_stream::info(sack::reliability_mode profile_mode) const {
    stream_info i;
    i.id = id_;
    i.open = open_;
    i.reliability = effective_mode(profile_mode);
    i.weight = opts_.weight;
    i.bytes_offered = unlimited() ? 0 : total_bytes_;
    i.bytes_sent = next_offset_;
    i.bytes_acked = scoreboard_.delivered_bytes();
    i.rtx_bytes_sent = rtx_bytes_sent_;
    i.abandoned_bytes = rtx_queue_.abandoned_bytes();
    return i;
}

// ---------------------------------------------------------------------------
// stream_mux
// ---------------------------------------------------------------------------

stream_mux::stream_mux(stream_options stream0_opts, std::uint64_t total_bytes, bool open,
                       sack::scoreboard_config sb_cfg, stream_scheduler_config sched_cfg)
    : sb_cfg_(sb_cfg), sched_(sched_cfg) {
    stream0_opts.follow_profile = true;
    streams_.push_back(
        std::make_unique<outbound_stream>(0, stream0_opts, total_bytes, open, sb_cfg_));
}

void stream_mux::set_profile_mode(sack::reliability_mode mode) {
    if (mode == profile_mode_) return;
    // Bytes sent under the previous mode keep its semantics; the
    // scoreboard of every profile-following stream restarts its coverage
    // at the switch point (see connection_sender::apply_profile).
    for (auto& s : streams_)
        if (s->options().follow_profile && s->effective_mode(profile_mode_) != mode)
            s->reset_reliable_from();
    profile_mode_ = mode;
}

std::uint32_t stream_mux::open_stream(const stream_options& opts) {
    if (streams_.size() >= max_streams) return invalid_stream;
    const auto id = static_cast<std::uint32_t>(streams_.size());
    streams_.push_back(std::make_unique<outbound_stream>(
        id, opts, /*total_bytes=*/0, /*open=*/true, sb_cfg_));
    return id;
}

std::uint64_t stream_mux::offer(std::uint32_t id, std::uint64_t n,
                                std::uint64_t max_buffered) {
    outbound_stream* s = find(id);
    if (s == nullptr || !s->open() || s->unlimited()) return 0;
    std::uint64_t accepted = n;
    if (max_buffered != 0) {
        const std::uint64_t buffered = buffered_bytes();
        accepted = buffered >= max_buffered
                       ? 0
                       : std::min<std::uint64_t>(n, max_buffered - buffered);
    }
    s->offer(accepted);
    return accepted;
}

std::uint64_t stream_mux::offer_bytes(std::uint32_t id, const std::uint8_t* data,
                                      std::uint64_t n, std::uint64_t max_buffered) {
    const std::uint64_t accepted = offer(id, n, max_buffered);
    if (accepted > 0) streams_[id]->append_payload(data, accepted);
    return accepted;
}

std::uint32_t stream_mux::fetch_payload(const payload_pick& pick, std::uint8_t* out) {
    outbound_stream* s = find(pick.stream_id);
    return s != nullptr ? s->fetch_payload(pick.byte_offset, pick.payload_len, out) : 0;
}

bool stream_mux::any_payload() const {
    return std::any_of(streams_.begin(), streams_.end(),
                       [](const auto& s) { return s->carries_payload(); });
}

std::uint64_t stream_mux::payload_miss_bytes_total() const {
    std::uint64_t total = 0;
    for (const auto& s : streams_) total += s->payload_miss_bytes();
    return total;
}

void stream_mux::finish(std::uint32_t id) {
    if (outbound_stream* s = find(id)) s->finish();
}

void stream_mux::finish_all() {
    for (auto& s : streams_) s->finish();
}

outbound_stream* stream_mux::find(std::uint32_t id) {
    return id < streams_.size() ? streams_[id].get() : nullptr;
}

const outbound_stream* stream_mux::find(std::uint32_t id) const {
    return id < streams_.size() ? streams_[id].get() : nullptr;
}

bool stream_mux::any_open() const {
    return std::any_of(streams_.begin(), streams_.end(),
                       [](const auto& s) { return s->open(); });
}

bool stream_mux::has_payload_work() const {
    return std::any_of(streams_.begin(), streams_.end(), [this](const auto& s) {
        return s->has_work(s->effective_mode(profile_mode_));
    });
}

bool stream_mux::probe_needed() const {
    return std::any_of(streams_.begin(), streams_.end(), [this](const auto& s) {
        return s->effective_mode(profile_mode_) != sack::reliability_mode::none &&
               s->reliability().outstanding() > 0;
    });
}

bool stream_mux::all_done() const {
    return std::all_of(streams_.begin(), streams_.end(), [this](const auto& s) {
        return s->done(s->effective_mode(profile_mode_));
    });
}

std::uint64_t stream_mux::buffered_bytes() const {
    std::uint64_t total = 0;
    for (const auto& s : streams_) total += s->buffered_bytes();
    return total;
}

sack::reliability_policy stream_mux::policy_for(const outbound_stream& s,
                                                const send_policy& pol) const {
    sack::reliability_policy p;
    p.mode = s.effective_mode(profile_mode_);
    p.partial_margin = pol.partial_margin;
    p.max_transmissions = s.options().max_transmissions;
    return p;
}

std::optional<payload_pick> stream_mux::next_payload(util::sim_time now,
                                                     const send_policy& pol,
                                                     std::uint64_t seq) {
    std::vector<stream_scheduler::candidate> cands;
    cands.reserve(streams_.size());
    for (const auto& s : streams_) {
        if (s->has_work(s->effective_mode(profile_mode_))) {
            cands.push_back({s->id(), s->options().weight, s->earliest_deadline()});
        } else {
            sched_.trim_idle(s->id());
        }
    }
    while (!cands.empty()) {
        const std::uint32_t id = sched_.pick(cands, now);
        outbound_stream& s = *streams_[id];
        if (auto pick = s.next_payload(now, policy_for(s, pol),
                                       s.effective_mode(profile_mode_), seq,
                                       pol.packet_size)) {
            sched_.charge(id, pick->payload_len);
            return pick;
        }
        // The stream's pending work was all expired retransmissions:
        // drop it from this slot's candidates and re-arbitrate.
        cands.erase(std::find_if(cands.begin(), cands.end(),
                                 [id](const auto& c) { return c.id == id; }));
        sched_.trim_idle(id);
    }
    return std::nullopt;
}

void stream_mux::on_sack(const packet::sack_feedback_segment& fb,
                         const send_policy& pol) {
    for (auto& s : streams_) {
        const sack::reliability_mode mode = s->effective_mode(profile_mode_);
        if (mode == sack::reliability_mode::none) continue;
        s->on_sack(fb, policy_for(*s, pol));
        s->trim_tx_buffer(mode);
    }
}

void stream_mux::trim_after_send(std::uint32_t id) {
    if (outbound_stream* s = find(id)) s->trim_tx_buffer(s->effective_mode(profile_mode_));
}

std::uint64_t stream_mux::rtx_bytes_sent_total() const {
    std::uint64_t total = 0;
    for (const auto& s : streams_) total += s->rtx_bytes_sent();
    return total;
}

std::vector<stream_info> stream_mux::infos() const {
    std::vector<stream_info> out;
    out.reserve(streams_.size());
    for (const auto& s : streams_) out.push_back(s->info(profile_mode_));
    return out;
}

// ---------------------------------------------------------------------------
// stream_demux
// ---------------------------------------------------------------------------

stream_demux::stream_demux(sack::delivery_order stream0_order) {
    streams_.emplace(0u, std::make_unique<inbound_stream>(stream0_order));
}

stream_demux::inbound_stream& stream_demux::entry_at(std::uint32_t id,
                                                     sack::delivery_order order,
                                                     bool& created) {
    auto it = streams_.find(id);
    created = it == streams_.end();
    if (created) it = streams_.emplace(id, std::make_unique<inbound_stream>(order)).first;
    return *it->second;
}

void stream_demux::release_staged_prefix(inbound_stream& s, std::uint64_t upto) {
    auto it = s.staged.begin();
    while (it != s.staged.end() && it->first + it->second.size() <= upto) {
        buffered_payload_ -= it->second.size();
        it = s.staged.erase(it);
    }
}

bool stream_demux::stage_payload(inbound_stream& s, std::uint64_t offset,
                                 const std::uint8_t* payload, std::uint32_t len) {
    // Staged bytes count against the same cap as ready chunks: a
    // head-of-line gap must not let out-of-order payload grow receiver
    // memory without bound.
    auto it = s.staged.find(offset);
    const std::uint64_t replaced = it != s.staged.end() ? it->second.size() : 0;
    if (store_limit_ != 0 && buffered_payload_ - replaced + len > store_limit_) {
        payload_dropped_ += len;
        return false;
    }
    buffered_payload_ -= replaced;
    buffered_payload_ += len;
    if (it != s.staged.end())
        it->second.assign(payload, payload + len);
    else
        s.staged.emplace(offset, std::vector<std::uint8_t>(payload, payload + len));
    return true;
}

std::vector<std::uint8_t> stream_demux::extract_staged(inbound_stream& s,
                                                       std::uint64_t offset,
                                                       std::uint64_t len) {
    // Gaps that were never staged (length-only frames mixed into a
    // payload stream) read as zeroes — payload_len and delivery
    // accounting stay authoritative either way.
    std::vector<std::uint8_t> out(static_cast<std::size_t>(len), 0);
    auto it = s.staged.upper_bound(offset);
    if (it != s.staged.begin()) --it;
    const std::uint64_t end = offset + len;
    while (it != s.staged.end() && it->first < end) {
        const std::uint64_t c_begin = it->first;
        const std::uint64_t c_end = c_begin + it->second.size();
        const std::uint64_t lo = std::max(c_begin, offset);
        const std::uint64_t hi = std::min(c_end, end);
        if (hi > lo)
            std::copy_n(it->second.data() + (lo - c_begin), hi - lo,
                        out.data() + (lo - offset));
        ++it;
    }
    release_staged_prefix(s, end);
    return out;
}

bool stream_demux::store_chunk(inbound_stream& s, std::uint64_t offset,
                               std::vector<std::uint8_t>&& bytes, util::sim_time now) {
    if (store_limit_ != 0 && buffered_payload_ + bytes.size() > store_limit_) {
        payload_dropped_ += bytes.size();
        return false;
    }
    buffered_payload_ += bytes.size();
    s.ready.push_back(ready_chunk{offset, now, std::move(bytes)});
    return true;
}

stream_demux::frame_result stream_demux::on_frame(std::uint32_t id,
                                                  sack::reliability_mode mode,
                                                  std::uint64_t offset, std::uint32_t len,
                                                  bool end_of_stream,
                                                  const std::uint8_t* payload,
                                                  util::sim_time now) {
    frame_result res;
    if (id >= max_streams) return res; // wire decoder already rejects these
    const auto order = mode == sack::reliability_mode::full
                           ? sack::delivery_order::ordered
                           : sack::delivery_order::immediate;
    bool created = false;
    inbound_stream& s = entry_at(id, order, created);
    res.opened = created;

    // Stage real payload of not-yet-deliverable ordered data before the
    // reassembly decides; immediate-mode frames deliver right away and
    // skip the detour, as does the common in-order case — a frame
    // landing exactly at the delivery point with nothing received beyond
    // it delivers itself verbatim, no staging round-trip.
    const bool ordered = s.ra.order() == sack::delivery_order::ordered;
    const bool in_order_fast =
        ordered && payload != nullptr && s.staged.empty() &&
        offset == s.ra.in_order_point() &&
        s.ra.received().range_count() == (offset > 0 ? 1u : 0u);
    if (payload != nullptr && len > 0 && ordered && !in_order_fast &&
        !s.ra.received().contains(offset, offset + len))
        stage_payload(s, offset, payload, len);

    res.delivered = s.ra.on_data(offset, len, end_of_stream);
    if (res.delivered.any() && (payload != nullptr || (ordered && !s.staged.empty()))) {
        // Park the delivered bytes for recv(): the frame itself in
        // immediate mode, the assembled prefix in ordered mode. The
        // staged check covers a length-only frame releasing a prefix
        // that contains earlier *payload* frames — those bytes must
        // reach recv() even though this frame carried none.
        std::vector<std::uint8_t> bytes =
            ordered && !in_order_fast
                ? extract_staged(s, res.delivered.offset, res.delivered.length)
                : std::vector<std::uint8_t>(payload, payload + len);
        const bool was_empty = s.ready.empty();
        if (store_chunk(s, res.delivered.offset, std::move(bytes), now) &&
            was_empty && !s.readable_signalled) {
            s.readable_signalled = true;
            res.became_readable = true;
        }
    }
    if (!s.fin_reported && s.ra.complete()) {
        s.fin_reported = true;
        res.finished = true;
    }
    return res;
}

std::size_t stream_demux::read(std::uint32_t id, std::uint8_t* out, std::size_t cap) {
    const auto it = streams_.find(id);
    if (it == streams_.end()) return 0;
    inbound_stream& s = *it->second;
    std::size_t copied = 0;
    while (copied < cap && !s.ready.empty()) {
        ready_chunk& front = s.ready.front();
        const std::size_t avail = front.bytes.size() - s.front_consumed;
        const std::size_t take = std::min(avail, cap - copied);
        std::copy_n(front.bytes.data() + s.front_consumed, take, out + copied);
        copied += take;
        s.front_consumed += take;
        buffered_payload_ -= take;
        if (s.front_consumed == front.bytes.size()) {
            s.ready.pop_front();
            s.front_consumed = 0;
        }
    }
    if (s.ready.empty()) s.readable_signalled = false;
    return copied;
}

bool stream_demux::pop_chunk(std::uint32_t id, ready_chunk& out) {
    const auto it = streams_.find(id);
    if (it == streams_.end()) return false;
    inbound_stream& s = *it->second;
    if (s.ready.empty()) return false;
    out = std::move(s.ready.front());
    s.ready.pop_front();
    if (s.front_consumed > 0) {
        // A partial read() consumed the chunk's head: hand back the rest.
        out.bytes.erase(out.bytes.begin(),
                        out.bytes.begin() + static_cast<std::ptrdiff_t>(s.front_consumed));
        out.offset += s.front_consumed;
        s.front_consumed = 0;
    }
    buffered_payload_ -= out.bytes.size();
    if (s.ready.empty()) s.readable_signalled = false;
    return true;
}

bool stream_demux::pop_chunk_any(std::uint32_t& id_out, ready_chunk& out) {
    for (auto& [id, s] : streams_) {
        if (s->ready.empty()) continue;
        id_out = id;
        return pop_chunk(id, out);
    }
    return false;
}

void stream_demux::unpop_chunk(std::uint32_t id, ready_chunk&& chunk) {
    const auto it = streams_.find(id);
    if (it == streams_.end()) return;
    inbound_stream& s = *it->second;
    // pop_chunk folded any partially-read prefix away, so the chunk goes
    // back whole at the front; no front_consumed adjustment needed.
    buffered_payload_ += chunk.bytes.size();
    s.ready.push_front(std::move(chunk));
    s.readable_signalled = true; // still buffered; no new edge owed
}

void stream_demux::clear_readable_signal(std::uint32_t id) {
    const auto it = streams_.find(id);
    if (it != streams_.end()) it->second->readable_signalled = false;
}

std::uint64_t stream_demux::readable_bytes(std::uint32_t id) const {
    const auto it = streams_.find(id);
    if (it == streams_.end()) return 0;
    std::uint64_t total = 0;
    for (const auto& c : it->second->ready) total += c.bytes.size();
    return total - it->second->front_consumed;
}

const sack::reassembly* stream_demux::find(std::uint32_t id) const {
    const auto it = streams_.find(id);
    return it == streams_.end() ? nullptr : &it->second->ra;
}

std::uint64_t stream_demux::delivered_bytes_total() const {
    std::uint64_t total = 0;
    for (const auto& [id, s] : streams_) total += s->ra.delivered_bytes();
    return total;
}

std::size_t stream_demux::state_bytes() const {
    std::size_t total = 0;
    for (const auto& [id, s] : streams_) {
        total += sizeof(inbound_stream) +
                 s->ra.received().range_count() * 2 * sizeof(std::uint64_t);
        for (const auto& [off, bytes] : s->staged) total += bytes.size();
        for (const auto& c : s->ready) total += c.bytes.size();
    }
    return total;
}

} // namespace vtp::stream
