// traced_pair: the workload's sessions hosted on one thread, with every
// call into a layer recorded as a span (see transport.hpp).
//
// Each traced_env is one engine shard taken apart: the same call
// sequence as engine::shard::turn() (handoffs, timer wheel, tx flush,
// then the reactor dispatching recv_batch), built from the same public
// pieces, so a span around each call measures that layer as the engine
// runs it. The server env steers with a 2-shard flow map: datagrams
// owned by the other virtual shard cross an spsc_queue and are
// dispatched at the next turn, like a cross-shard handoff.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <variant>

#include "api/server.hpp"
#include "core/connection.hpp"
#include "engine/buffer_pool.hpp"
#include "engine/flow_map.hpp"
#include "engine/reactor.hpp"
#include "engine/spsc_queue.hpp"
#include "engine/timer_wheel.hpp"
#include "engine/udp_io.hpp"
#include "packet/wire.hpp"
#include "transport.hpp"

namespace perfbench {

std::vector<std::string> span_names() {
    return {"engine.recv_batch", "engine.steer",     "packet.decode",
            "core.rx_ingest",    "core.tx_feedback", "core.accept",
            "core.agent_other",  "engine.timer_advance", "core.tx_tick",
            "core.timer_other",  "packet.encode",    "engine.send_batch",
            "api.poll"};
}

namespace {

using namespace vtp;

constexpr std::size_t batch = 64; // engine_config rx_batch / tx_batch

std::uint16_t bound_port(int fd) {
    sockaddr_in a{};
    socklen_t len = sizeof a;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0)
        throw std::runtime_error("getsockname() failed");
    return ntohs(a.sin_port);
}

/// Who owns the code a callback runs: decides the span name of agent
/// packets and timer fires.
enum class role : std::uint8_t { app, sender, receiver, listener };

class traced_env final : public qtp::environment {
public:
    traced_env(span_recorder& rec, engine::reactor& re, std::size_t shards,
               std::uint64_t seed, std::vector<double>& waits)
        : rec_(rec),
          reactor_(re),
          map_(shards),
          rng_(seed),
          wheel_(now_ns()),
          pool_(4096, engine::max_datagram),
          rx_(batch),
          handoff_(512),
          waits_(waits) {
        // Port 0: the kernel picks a free one; a failed bind throws.
        fd_ = engine::open_udp_socket(0, false, 1 << 21, 1 << 21);
        port_ = bound_port(fd_);
        pending_.reserve(batch);
        reactor_.add_fd(fd_, [this] { on_readable(); });
    }

    ~traced_env() override {
        reactor_.remove_fd(fd_);
        agents_.clear();
        ::close(fd_);
    }

    traced_env(const traced_env&) = delete;
    traced_env& operator=(const traced_env&) = delete;

    /// One shard turn without the posted-work and command drains.
    void turn() {
        drain_handoffs();
        const std::int32_t sp = rec_.begin(sp_timer_advance);
        wheel_.advance(now());
        rec_.end(sp);
        flush_tx();
    }

    std::int64_t next_deadline() const { return wheel_.next_deadline_hint(); }

    /// Run application code as `r` (timers it arms fire under that role).
    template <typename F>
    auto as(role r, F fn) -> decltype(fn()) {
        const role saved = cur_;
        cur_ = r;
        struct restore {
            role& cur;
            role saved;
            ~restore() { cur = saved; }
        } guard{cur_, saved};
        return fn();
    }

    template <typename F>
    void for_each_agent(const F& fn) {
        for (auto& [flow, h] : agents_) fn(flow, *h.a);
    }

    qtp::agent* find(std::uint32_t flow) {
        const auto it = agents_.find(flow);
        return it == agents_.end() ? nullptr : it->second.a.get();
    }

    // --- qtp::environment -----------------------------------------------
    util::sim_time now() const override { return now_ns(); }

    qtp::timer_id schedule(util::sim_time delay, std::function<void()> fn) override {
        const role r = cur_;
        return wheel_.schedule_at(
            now() + std::max<util::sim_time>(delay, 0), [this, r, fn = std::move(fn)] {
                as(r, [&] {
                    scoped_span s(rec_, r == role::sender ? sp_tx_tick : sp_timer_other);
                    fn();
                });
            });
    }

    void cancel(qtp::timer_id id) override { wheel_.cancel(id); }

    void send(packet::packet pkt) override {
        std::uint8_t* buf = pool_.acquire();
        if (buf == nullptr) {
            flush_tx();
            buf = pool_.acquire();
        }
        if (buf == nullptr) return;
        for (int i = 0; i < 4; ++i)
            buf[i] = static_cast<std::uint8_t>(pkt.flow_id >> (24 - 8 * i));
        for (int i = 0; i < 4; ++i)
            buf[4 + i] = static_cast<std::uint8_t>(port_ >> (24 - 8 * i));
        std::size_t body = 0;
        {
            scoped_span s(rec_, sp_encode, rec_.next_id());
            body = packet::encode_segment_into(*pkt.body, buf + 8, engine::max_datagram - 8);
        }
        pending_.push_back(engine::tx_item{
            buf, 8 + body, engine::loopback_addr(static_cast<std::uint16_t>(pkt.dst))});
        if (pending_.size() >= batch) flush_tx();
    }

    std::uint32_t local_addr() const override { return port_; }
    util::rng& random() override { return rng_; }

    void attach_dynamic(std::uint32_t flow, std::unique_ptr<qtp::agent> a) override {
        qtp::agent* raw = a.get();
        const role r = dynamic_cast<qtp::connection_sender*>(raw) != nullptr ? role::sender
                                                                              : role::receiver;
        agents_[flow] = hosted{std::move(a), r};
        as(r, [&] { raw->start(*this); });
    }
    void detach_dynamic(std::uint32_t flow) override { agents_.erase(flow); }
    void set_default_agent(qtp::agent* a) override { default_ = a; }
    std::uint32_t send_burst() const override { return 8; }

    void flush_tx() {
        if (pending_.empty()) return;
        const std::int32_t sp = rec_.begin(sp_send_batch);
        engine::send_batch(fd_, pending_.data(), pending_.size());
        rec_.end(sp, static_cast<std::uint32_t>(pending_.size()));
        for (const engine::tx_item& it : pending_)
            pool_.release(const_cast<std::uint8_t*>(it.data));
        pending_.clear();
    }

private:
    struct hosted {
        std::unique_ptr<qtp::agent> a;
        role r = role::app;
    };
    struct handoff_msg {
        std::uint32_t len = 0;
        std::uint32_t id = 0;
        std::int64_t pushed = 0;
        std::uint8_t bytes[engine::max_datagram];
    };

    void on_readable() {
        const std::int32_t sp = rec_.begin(sp_recv_batch);
        const std::size_t n = engine::recv_batch(fd_, rx_);
        rec_.end(sp, static_cast<std::uint32_t>(n));
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t len = rx_.len(i);
            if (rx_.truncated(i) || len < 8 || len > engine::max_datagram) continue;
            const std::uint8_t* data = rx_.data(i);
            const std::uint32_t id = rec_.next_id();
            const std::int32_t st = rec_.begin(sp_steer, id);
            std::uint32_t flow = 0;
            for (int b = 0; b < 4; ++b) flow = (flow << 8) | data[b];
            const bool local = map_.owner(flow) == 0;
            if (!local) {
                handoff_msg m;
                m.len = static_cast<std::uint32_t>(len);
                m.id = id;
                std::memcpy(m.bytes, data, len);
                m.pushed = now_ns();
                handoff_.push(std::move(m));
            }
            rec_.end(st);
            if (local) dispatch(data, len, id);
        }
    }

    void drain_handoffs() {
        handoff_msg m;
        while (handoff_.pop(m)) {
            if (waits_.size() < waits_.capacity())
                waits_.push_back(static_cast<double>(now_ns() - m.pushed));
            dispatch(m.bytes, m.len, m.id);
        }
    }

    void dispatch(const std::uint8_t* dgram, std::size_t len, std::uint32_t id) {
        std::uint32_t flow = 0;
        std::uint32_t src = 0;
        for (int i = 0; i < 4; ++i) flow = (flow << 8) | dgram[i];
        for (int i = 4; i < 8; ++i) src = (src << 8) | dgram[i];
        packet::packet pkt;
        pkt.flow_id = flow;
        pkt.src = src;
        pkt.dst = port_;
        try {
            scoped_span s(rec_, sp_decode, id);
            pkt.body = std::make_shared<const packet::segment>(
                packet::decode_segment(dgram + 8, len - 8));
        } catch (const std::exception&) {
            return; // the engine counts these as decode_errors
        }
        pkt.size_bytes = packet::wire_size(*pkt.body);
        qtp::agent* a = default_;
        role r = role::listener;
        if (const auto it = agents_.find(flow); it != agents_.end()) {
            a = it->second.a.get();
            r = it->second.r;
        }
        if (a == nullptr) return;
        const packet::segment& seg = *pkt.body;
        span_name name = sp_agent_other;
        if (r == role::receiver && (std::holds_alternative<packet::data_segment>(seg) ||
                                    std::holds_alternative<packet::data_stream_segment>(seg)))
            name = sp_rx_ingest;
        else if (r == role::sender &&
                 (std::holds_alternative<packet::sack_feedback_segment>(seg) ||
                  std::holds_alternative<packet::tfrc_feedback_segment>(seg)))
            name = sp_tx_feedback;
        else if (const auto* hs = std::get_if<packet::handshake_segment>(&seg);
                 r == role::listener && hs != nullptr &&
                 hs->type == packet::handshake_segment::kind::syn)
            name = sp_accept;
        as(r, [&] {
            scoped_span s(rec_, name, id);
            a->on_packet(pkt);
        });
    }

    span_recorder& rec_;
    engine::reactor& reactor_;
    engine::flow_shard_map map_;
    util::rng rng_;
    engine::timer_wheel wheel_;
    engine::buffer_pool pool_;
    engine::rx_batch rx_;
    std::vector<engine::tx_item> pending_;
    engine::spsc_queue<handoff_msg> handoff_;
    std::vector<double>& waits_;
    std::unordered_map<std::uint32_t, hosted> agents_;
    qtp::agent* default_ = nullptr;
    role cur_ = role::app;
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/// The engine's event export (shard_sink -> spsc ring -> poll_events),
/// for one env.
struct queue_sink final : qtp::event_sink {
    engine::spsc_queue<engine::engine_event> q{1 << 15};
    bool on_session_event(std::uint32_t flow, const qtp::event& ev,
                          std::vector<std::uint8_t>& payload) override {
        engine::engine_event e;
        e.flow = flow;
        e.ev = ev;
        e.payload = std::move(payload);
        if (q.push(std::move(e))) return true;
        payload = std::move(e.payload);
        return false;
    }
};

class traced_pair final : public traced_pair_base {
public:
    traced_pair(std::uint64_t seed, std::size_t capacity)
        : rec_(capacity),
          server_env_(rec_, reactor_, 2, seed, waits_),
          client_env_(rec_, reactor_, 1, seed + 1000, waits_) {
        waits_.reserve(1 << 20);
        server_ = std::make_unique<vtp::server>(server_env_);
        server_->set_on_session([this](session& s) { s.set_event_sink(&server_sink_); });
        arm_server_reaper();
        arm_client_reaper();
        rec_.start();
    }

    void connect(session_options opts, std::function<void(session&)> on_ready) override {
        client_env_.as(role::sender, [&] {
            session s = session::connect(client_env_, server_env_.local_addr(), opts);
            s.set_event_sink(&client_sink_);
            on_ready(s);
        });
    }

    bool send(std::uint32_t flow, std::uint32_t stream, const std::uint8_t* data,
              std::size_t len) override {
        auto* tx = dynamic_cast<qtp::connection_sender*>(client_env_.find(flow));
        if (tx == nullptr) return false;
        return client_env_.as(role::sender,
                              [&] { return tx->offer_bytes(stream, data, len); }) == len;
    }

    bool close(std::uint32_t flow) override {
        auto* tx = dynamic_cast<qtp::connection_sender*>(client_env_.find(flow));
        if (tx == nullptr) return false;
        client_env_.as(role::sender, [&] { tx->finish_stream(); });
        return true;
    }

    std::size_t poll_server(engine::engine_event* out, std::size_t max) override {
        return poll(server_sink_, out, max);
    }
    std::size_t poll_client(engine::engine_event* out, std::size_t max) override {
        return poll(client_sink_, out, max);
    }

    void idle(std::int64_t until) override {
        rec_.check_capacity();
        server_env_.turn();
        client_env_.turn();
        const std::int64_t next =
            std::min({until, server_env_.next_deadline(), client_env_.next_deadline()});
        const bool events = server_sink_.q.size() > 0 || client_sink_.q.size() > 0;
        const std::int64_t timeout =
            events ? 0 : std::clamp<std::int64_t>(next - now_ns(), 0, 1'000'000);
        reactor_.poll_once(timeout);
    }

    span_recorder& recorder() override { return rec_; }
    const std::vector<double>& handoff_waits() const override { return waits_; }

private:
    std::size_t poll(queue_sink& sink, engine::engine_event* out, std::size_t max) {
        const std::int32_t sp = rec_.begin(sp_poll);
        std::size_t n = 0;
        while (n < max && sink.q.pop(out[n])) ++n;
        if (n == 0)
            rec_.discard(sp);
        else
            rec_.end(sp, static_cast<std::uint32_t>(n));
        return n;
    }

    void arm_server_reaper() {
        server_env_.schedule(util::milliseconds(250), [this] {
            server_->reap_closed();
            arm_server_reaper();
        });
    }
    void arm_client_reaper() {
        client_env_.schedule(util::milliseconds(250), [this] {
            const auto visit = [this](const auto& fn) { client_env_.for_each_agent(fn); };
            for (const std::uint32_t flow : reapable_senders(visit, closed_since_, now_ns()))
                client_env_.detach_dynamic(flow);
            arm_client_reaper();
        });
    }

    span_recorder rec_;
    std::vector<double> waits_;
    engine::reactor reactor_;
    queue_sink server_sink_;
    queue_sink client_sink_;
    traced_env server_env_;
    traced_env client_env_;
    std::unique_ptr<vtp::server> server_;
    std::unordered_map<std::uint32_t, std::int64_t> closed_since_;
};

} // namespace

std::unique_ptr<traced_pair_base> make_traced_pair(std::uint64_t seed,
                                                   std::size_t span_capacity) {
    return std::make_unique<traced_pair>(seed, span_capacity);
}

} // namespace perfbench
