#include "core/endpoint.hpp"

#include "packet/wire.hpp"
#include "util/logging.hpp"

namespace vtp::qtp {

endpoint_core::endpoint_core(connection_config cfg, const char* tag)
    : cfg_(std::move(cfg)),
      tag_(tag),
      reneg_resp_(cfg_.caps),
      events_(cfg_.event_queue_capacity) {
    if (cfg_.trace_ring_records > 0)
        tracer_ = std::make_unique<trace::tracer>(cfg_.flow_id, cfg_.trace_ring_records,
                                                  cfg_.trace_sink);
    if (cfg_.reneg_rate_bps > 0.0)
        reneg_bucket_.emplace(cfg_.reneg_rate_bps, cfg_.reneg_burst_bytes);
    path_.configure(cfg_.path, cfg_.flow_id);
}

bool endpoint_core::emit(const event& ev) {
    if (sink_ != nullptr) {
        std::vector<std::uint8_t> none;
        if (sink_->on_session_event(cfg_.flow_id, ev, none)) return true;
        events_.count_external_drop();
        return false;
    }
    return events_.push(ev);
}

void endpoint_core::set_event_sink(event_sink* sink) {
    sink_ = sink;
    if (sink_ == nullptr) return;
    // Events queued before the sink existed (established fires while the
    // accept path is still installing it) drain through now.
    event ev;
    std::vector<std::uint8_t> none;
    while (events_.poll(&ev, 1) == 1)
        if (!sink_->on_session_event(cfg_.flow_id, ev, none))
            events_.count_external_drop();
    sink_attached();
}

void endpoint_core::attach_tracer(std::size_t ring_records, trace::sink* sink) {
    tracer_ = std::make_unique<trace::tracer>(
        cfg_.flow_id, ring_records != 0 ? ring_records : 4096, sink);
    path_.set_tracer(tracer_.get());
    tracer_changed();
}

void endpoint_core::detach_tracer() {
    path_.set_tracer(nullptr);
    tracer_.reset();
    tracer_changed();
}

void endpoint_core::request_renegotiate(const profile& p) {
    if (!established_ || closed_ || env_ == nullptr) return;
    reneg_.start(*env_, cfg_.flow_id, cfg_.peer_addr, cfg_.handshake_rtx, tag_, p);
    if (tracer_)
        tracer_->push(env_->now(), trace::record_type::reneg_proposed, 0, 0,
                      p.encode(), static_cast<std::uint64_t>(p.target_rate_bps));
}

void endpoint_core::on_reneg(const packet::handshake_segment& seg) {
    if (!established_) return;
    if (seg.type == packet::handshake_segment::kind::reneg) {
        // A peer can retransmit proposals arbitrarily fast and each one
        // costs responder work; the budget drops the excess up front.
        if (reneg_bucket_ &&
            !reneg_bucket_->consume(packet::wire_size(packet::segment{seg}),
                                    env_->now())) {
            ++reneg_rate_limited_;
            return;
        }
        if (!on_peer_proposal()) return;
        const auto resp = reneg_resp_.on_segment(seg, reneg_boundary());
        if (!resp) return;
        if (resp->is_new) apply_profile(resp->accepted, resp->ack.boundary_seq);
        env_->send(packet::make_packet(cfg_.flow_id, env_->local_addr(), cfg_.peer_addr,
                                       resp->ack));
        return;
    }
    // Our own proposal came back accepted: it governs our packets from
    // the next one on.
    if (const auto accepted = reneg_.on_ack(*env_, seg))
        apply_profile(*accepted, reneg_boundary());
}

void endpoint_core::announce_established() {
    established_ = true;
    util::log(util::log_level::info, tag_, "established: ", active_.describe());
    if (tracer_)
        tracer_->push(env_->now(), trace::record_type::established,
                      static_cast<std::uint8_t>(active_.congestion), 0, active_.encode(),
                      0);
    event ev;
    ev.type = event_type::established;
    ev.prof = active_;
    emit(ev);
}

void endpoint_core::announce_profile(std::uint64_t boundary_seq) {
    ++renegotiations_;
    util::log(util::log_level::info, tag_, "renegotiated: ", active_.describe(),
              " from seq ", boundary_seq);
    if (tracer_)
        tracer_->push(env_->now(), trace::record_type::reneg_applied,
                      static_cast<std::uint8_t>(active_.congestion), 0, active_.encode(),
                      boundary_seq);
    event ev;
    ev.type = event_type::profile_changed;
    ev.prof = active_;
    emit(ev);
}

void endpoint_core::shut_down() {
    closed_ = true;
    reneg_.cancel(*env_);
    path_.stop();
}

void endpoint_core::announce_closed() {
    util::log(util::log_level::info, tag_, "closed");
    if (tracer_) {
        tracer_->push(env_->now(), trace::record_type::closed, 0, 0, 0, 0);
        tracer_->flush();
    }
    event ev;
    ev.type = event_type::closed;
    emit(ev);
}

void endpoint_core::start_paths() {
    if (!path_.enabled()) return;
    path_.set_tracer(tracer_.get());
    path_.set_on_path_changed(
        [this](std::uint32_t old_remote, std::uint32_t new_remote, std::uint8_t cause) {
            // Control traffic (reneg, FIN, feedback) and single-path data
            // follow the config address; congestion state and every
            // stream scoreboard are untouched — the transfer continues at
            // the established operating point on the new 4-tuple.
            cfg_.peer_addr = new_remote;
            util::log(util::log_level::info, tag_, "path changed: ", old_remote, " -> ",
                      new_remote, " cause ", static_cast<int>(cause));
            event ev;
            ev.type = event_type::path_changed;
            ev.offset = old_remote;
            ev.bytes = new_remote;
            emit(ev);
        });
    path_.start(*env_, cfg_.peer_addr);
}

bool endpoint_core::on_path_frame(const packet::packet& pkt) {
    if (!path_.enabled()) return false;
    if (const auto* pc = std::get_if<packet::path_challenge_segment>(pkt.body.get())) {
        path_.on_challenge(*pc, pkt.src, established_);
        return true;
    }
    if (const auto* pr = std::get_if<packet::path_response_segment>(pkt.body.get())) {
        path_.on_response(*pr, pkt.src);
        return true;
    }
    path_.on_datagram(pkt.src, pkt.size_bytes, established_);
    return false;
}

} // namespace vtp::qtp
