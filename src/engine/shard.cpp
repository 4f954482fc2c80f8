#include "engine/shard.hpp"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "packet/wire.hpp"
#include "util/logging.hpp"

namespace vtp::engine {

namespace {

util::sim_time monotonic_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<util::sim_time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    // Single writer (the shard thread); relaxed is enough for readers
    // sampling monotonic counters.
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

} // namespace

shard::shard(shard_config cfg)
    : cfg_(cfg),
      map_(cfg.shard_count),
      rng_(cfg.rng_seed + cfg.index),
      wheel_(monotonic_ns()),
      pool_(cfg.pool_buffers, max_datagram),
      rx_(cfg.rx_batch) {
    fd_ = open_udp_socket(cfg_.port, cfg_.shard_count > 1, cfg_.rcvbuf_bytes,
                          cfg_.sndbuf_bytes);
    // A lone shard owns every flow, so it needs no steering for GRO.
    if (cfg_.shard_count == 1) enable_gro();
    tx_pending_.reserve(cfg_.tx_batch);

    turn_ns_ = &metrics_.get_histogram(
        "vtp_shard_turn_ns",
        "Busy time of one shard loop turn in ns (excludes the reactor sleep).");
    wheel_.set_fire_latency_histogram(&metrics_.get_histogram(
        "vtp_timer_fire_latency_ns",
        "Timer-wheel fire lateness vs the timer's deadline, ns."));

    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        ::close(fd_);
        throw std::runtime_error("shard: pipe() failed");
    }
    wake_r_ = pipefd[0];
    wake_w_ = pipefd[1];
    ::fcntl(wake_r_, F_SETFL, ::fcntl(wake_r_, F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(wake_w_, F_SETFL, ::fcntl(wake_w_, F_GETFL, 0) | O_NONBLOCK);

    reactor_.add_fd(fd_, [this] { on_socket_readable(); });
    reactor_.add_fd(wake_r_, [this] {
        std::uint8_t buf[64];
        while (::read(wake_r_, buf, sizeof buf) > 0) {
        }
    });
}

shard::~shard() {
    stop();
    reactor_.remove_fd(fd_);
    reactor_.remove_fd(wake_r_);
    if (fd_ >= 0) ::close(fd_);
    if (wake_r_ >= 0) ::close(wake_r_);
    if (wake_w_ >= 0) ::close(wake_w_);
}

void shard::interconnect(const std::vector<shard*>& all) {
    for (shard* s : all) {
        s->peers_.assign(all.begin(), all.end());
        s->outbound_.assign(all.size(), nullptr);
        s->notify_.assign(all.size(), 0);
        s->inbound_.clear();
        s->inbound_.resize(all.size());
        for (std::size_t j = 0; j < all.size(); ++j)
            if (all[j] != s)
                s->inbound_[j] = std::make_unique<spsc_queue<handoff_msg>>(
                    s->cfg_.handoff_capacity);
    }
    for (shard* s : all)
        for (std::size_t i = 0; i < all.size(); ++i)
            if (all[i] != s) s->outbound_[i] = all[i]->inbound_[s->cfg_.index].get();
    // GRO only behind steering: unsteered super-datagrams would cross the
    // handoff rings whole and overflow them.
    if (all.size() > 1 && attach_flow_steering(all[0]->fd_, all.size()))
        for (shard* s : all) s->enable_gro();
}

void shard::enable_gro() {
    if (enable_udp_gro(fd_))
        rx_ = rx_batch(std::min(cfg_.rx_batch, gro_batch_slots), gro_slot_bytes);
}

void shard::start() {
    if (running_.exchange(true)) return;
    thread_ = std::thread([this] { run(); });
}

void shard::stop() {
    if (!running_.exchange(false)) {
        if (thread_.joinable()) thread_.join();
        return;
    }
    wake();
    if (thread_.joinable()) thread_.join();
}

void shard::post(std::function<void()> fn) {
    {
        std::lock_guard<std::mutex> lock(posted_mu_);
        posted_.push_back(std::move(fn));
    }
    wake();
}

void shard::wake() {
    const std::uint8_t b = 1;
    // A full pipe already guarantees a pending wake-up.
    [[maybe_unused]] const ssize_t r = ::write(wake_w_, &b, 1);
}

util::sim_time shard::now() const { return monotonic_ns(); }

qtp::timer_id shard::schedule(util::sim_time delay, std::function<void()> fn) {
    return wheel_.schedule_at(now() + std::max<util::sim_time>(delay, 0),
                              std::move(fn));
}

void shard::cancel(qtp::timer_id id) { wheel_.cancel(id); }

void shard::attach_dynamic(std::uint32_t flow_id, std::unique_ptr<qtp::agent> a) {
    qtp::agent* raw = a.get();
    agents_[flow_id] = std::move(a);
    raw->start(*this);
}

void shard::send(packet::packet pkt) {
    std::uint8_t* buf = pool_.acquire();
    if (buf == nullptr) {
        flush_tx(); // returns every in-flight buffer
        buf = pool_.acquire();
    }
    if (buf == nullptr) {
        bump(stats_.pool_exhausted);
        return;
    }
    const std::uint32_t flow = pkt.flow_id;
    const std::uint32_t src = cfg_.port;
    for (int i = 0; i < 4; ++i) buf[i] = static_cast<std::uint8_t>(flow >> (24 - 8 * i));
    for (int i = 0; i < 4; ++i)
        buf[4 + i] = static_cast<std::uint8_t>(src >> (24 - 8 * i));
    std::size_t body_len = 0;
    try {
        body_len = packet::encode_segment_into(*pkt.body, buf + 8, max_datagram - 8);
    } catch (const std::length_error&) {
        // Segment larger than a datagram buffer (a payload frame built
        // with packet_size near/above max_datagram): drop it like a
        // too-long frame, never let the throw cross a timer callback.
        pool_.release(buf);
        bump(stats_.tx_dropped);
        util::log(util::log_level::warn, "engine",
                  "oversized segment dropped (packet_size vs max_datagram)");
        return;
    }
    tx_pending_.push_back(tx_item{
        buf, 8 + body_len, loopback_addr(static_cast<std::uint16_t>(pkt.dst))});
    if (tx_pending_.size() >= cfg_.tx_batch) flush_tx();
}

void shard::flush_tx() {
    if (tx_pending_.empty()) return;
    const std::size_t sent = send_batch(fd_, tx_pending_.data(), tx_pending_.size());
    bump(stats_.datagrams_tx, sent);
    if (sent > 0) bump(stats_.tx_batches);
    if (sent < tx_pending_.size()) bump(stats_.tx_dropped, tx_pending_.size() - sent);
    for (const tx_item& it : tx_pending_)
        pool_.release(const_cast<std::uint8_t*>(it.data));
    tx_pending_.clear();
}

void shard::dispatch(const std::uint8_t* dgram, std::size_t len) {
    std::uint32_t flow_id = 0;
    std::uint32_t src = 0;
    for (int i = 0; i < 4; ++i) flow_id = (flow_id << 8) | dgram[i];
    for (int i = 4; i < 8; ++i) src = (src << 8) | dgram[i];
    try {
        packet::packet pkt;
        pkt.flow_id = flow_id;
        pkt.src = src;
        pkt.dst = cfg_.port;
        pkt.body = std::make_shared<const packet::segment>(
            packet::decode_segment(dgram + 8, len - 8));
        pkt.size_bytes = packet::wire_size(*pkt.body);
        const auto it = agents_.find(flow_id);
        if (it != agents_.end())
            it->second->on_packet(pkt);
        else if (default_agent_ != nullptr)
            default_agent_->on_packet(pkt);
    } catch (const std::exception& e) {
        bump(stats_.decode_errors);
        util::log(util::log_level::warn, "engine", "decode error: ", e.what());
    }
}

void shard::on_socket_readable() {
    const std::size_t n = recv_batch(fd_, rx_);
    if (n == 0) return;
    bump(stats_.rx_batches);
    bump(stats_.datagrams_rx, n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = rx_.len(i);
        // Oversized: cut by the kernel (garbage), or whole in a GRO slot.
        if (rx_.truncated(i) || len > max_datagram) {
            bump(stats_.truncated_dropped);
            continue;
        }
        if (len < 8) continue; // runt
        const std::uint8_t* data = rx_.data(i);
        std::uint32_t flow_id = 0;
        for (int b = 0; b < 4; ++b) flow_id = (flow_id << 8) | data[b];
        const std::size_t owner = map_.owner(flow_id);
        if (owner == cfg_.index || outbound_.empty()) {
            dispatch(data, len);
            continue;
        }
        handoff_msg m;
        m.len = static_cast<std::uint32_t>(len);
        std::memcpy(m.bytes, data, len);
        if (outbound_[owner]->push(std::move(m))) {
            bump(stats_.handoff_out);
            notify_[owner] = 1;
        } else {
            bump(stats_.handoff_dropped);
        }
    }
    for (std::size_t i = 0; i < notify_.size(); ++i) {
        if (notify_[i] == 0) continue;
        notify_[i] = 0;
        peers_[i]->wake();
    }
}

void shard::drain_posted() {
    std::vector<std::function<void()>> batch;
    {
        std::lock_guard<std::mutex> lock(posted_mu_);
        batch.swap(posted_);
    }
    for (auto& fn : batch) fn();
}

void shard::drain_handoffs() {
    for (auto& q : inbound_) {
        if (q == nullptr) continue;
        handoff_msg m;
        while (q->pop(m)) {
            bump(stats_.handoff_in);
            dispatch(m.bytes, m.len);
        }
    }
}

void shard::turn() {
    const util::sim_time t0 = now();
    drain_posted();
    if (turn_hook_) turn_hook_();
    drain_handoffs();
    wheel_.advance(now());
    flush_tx();

    const util::sim_time t1 = now();
    turn_ns_->observe(static_cast<std::uint64_t>(t1 - t0));
    const util::sim_time hint = wheel_.next_deadline_hint();
    const util::sim_time timeout =
        hint == util::time_never ? util::milliseconds(100)
                                 : std::max<util::sim_time>(hint - t1, 0);
    // Readable fds (socket batches, wake pipe) dispatch inside; their
    // products — handoffs, posted work, tx batches — are picked up at
    // the top of the next turn, always before the next sleep.
    reactor_.poll_once(timeout);
}

void shard::run() {
    while (running_.load(std::memory_order_relaxed)) turn();
    // Final sweep so nothing sits half-processed at shutdown.
    drain_posted();
    if (turn_hook_) turn_hook_();
    drain_handoffs();
    flush_tx();
}

shard_stats shard::stats() const {
    shard_stats s;
    s.datagrams_rx = stats_.datagrams_rx.load(std::memory_order_relaxed);
    s.datagrams_tx = stats_.datagrams_tx.load(std::memory_order_relaxed);
    s.rx_batches = stats_.rx_batches.load(std::memory_order_relaxed);
    s.tx_batches = stats_.tx_batches.load(std::memory_order_relaxed);
    s.tx_dropped = stats_.tx_dropped.load(std::memory_order_relaxed);
    s.handoff_out = stats_.handoff_out.load(std::memory_order_relaxed);
    s.handoff_in = stats_.handoff_in.load(std::memory_order_relaxed);
    s.handoff_dropped = stats_.handoff_dropped.load(std::memory_order_relaxed);
    s.decode_errors = stats_.decode_errors.load(std::memory_order_relaxed);
    s.truncated_dropped = stats_.truncated_dropped.load(std::memory_order_relaxed);
    s.pool_exhausted = stats_.pool_exhausted.load(std::memory_order_relaxed);
    s.sessions = stats_.sessions.load(std::memory_order_relaxed);
    s.accepted = stats_.accepted.load(std::memory_order_relaxed);
    s.events_dropped = stats_.events_dropped.load(std::memory_order_relaxed);
    s.syn_retries_sent = stats_.syn_retries_sent.load(std::memory_order_relaxed);
    s.syn_cookies_validated =
        stats_.syn_cookies_validated.load(std::memory_order_relaxed);
    s.syn_cookies_rejected =
        stats_.syn_cookies_rejected.load(std::memory_order_relaxed);
    s.syn_rate_limited = stats_.syn_rate_limited.load(std::memory_order_relaxed);
    s.syn_sheds = stats_.syn_sheds.load(std::memory_order_relaxed);
    s.amp_limited = stats_.amp_limited.load(std::memory_order_relaxed);
    s.reneg_rate_limited = stats_.reneg_rate_limited.load(std::memory_order_relaxed);
    s.half_open = stats_.half_open.load(std::memory_order_relaxed);
    s.path_migrations = stats_.path_migrations.load(std::memory_order_relaxed);
    s.path_validations = stats_.path_validations.load(std::memory_order_relaxed);
    s.path_validation_failures =
        stats_.path_validation_failures.load(std::memory_order_relaxed);
    s.path_responses_rejected =
        stats_.path_responses_rejected.load(std::memory_order_relaxed);
    return s;
}

} // namespace vtp::engine
