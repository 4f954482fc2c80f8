// engine_pair: the measured configuration (see transport.hpp).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <future>
#include <stdexcept>
#include <thread>

#include "core/connection.hpp"
#include "transport.hpp"

namespace perfbench {
namespace {

using namespace vtp;

/// A loopback UDP port that was free a moment ago. The engines bind it
/// right after; losing that race is a bind failure, which fails the run.
std::uint16_t pick_free_port() {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof a;
    const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0 &&
                    ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) == 0;
    ::close(fd);
    if (!ok) throw std::runtime_error("cannot bind a loopback UDP port");
    return ntohs(a.sin_port);
}

long gettid_now() { return static_cast<long>(::syscall(SYS_gettid)); }

/// Run `fn` on shard `sh`'s thread and wait for its result.
template <typename F>
auto on_shard(engine::shard& sh, F fn) -> decltype(fn()) {
    std::promise<decltype(fn())> done;
    auto fut = done.get_future();
    sh.post([&] { done.set_value(fn()); });
    return fut.get();
}

engine::engine_config server_config(std::uint64_t seed) {
    engine::engine_config cfg;
    cfg.port = pick_free_port();
    cfg.shards = 2;
    cfg.rng_seed = seed;
    cfg.reap_interval = util::milliseconds(250);
    // The generator polls every ~50 us; the rings absorb a full bulk burst.
    cfg.event_queue_capacity = 1 << 15;
    return cfg;
}

engine::engine_config client_config(std::uint64_t seed) {
    engine::engine_config cfg;
    cfg.port = pick_free_port();
    cfg.shards = 1;
    cfg.rng_seed = seed + 1000;
    cfg.event_queue_capacity = 1 << 15;
    cfg.command_queue_capacity = 1 << 13;
    return cfg;
}

class engine_pair final : public transport_pair {
public:
    explicit engine_pair(std::uint64_t seed)
        : srv_(server_config(seed)), cli_(client_config(seed)) {
        srv_.start();
        cli_.start();
        for (std::size_t i = 0; i < srv_.shard_count(); ++i)
            server_tids_.push_back(on_shard(srv_.shard_at(i), gettid_now));
        client_tid_ = on_shard(cli_.shard_at(0), gettid_now);
        generator_tid_ = gettid_now();
        cli_.shard_at(0).post([this] { arm_client_reaper(); });
    }

    ~engine_pair() override {
        cli_.stop();
        srv_.stop();
    }

    void connect(session_options opts, std::function<void(session&)> on_ready) override {
        cli_.connect(srv_.config().port, opts,
                     [cb = std::move(on_ready)](std::size_t, session s) { cb(s); });
    }

    bool send(std::uint32_t flow, std::uint32_t stream, const std::uint8_t* data,
              std::size_t len) override {
        return cli_.send(cli_.owner_of(flow), flow, stream, data, len);
    }

    bool close(std::uint32_t flow) override { return cli_.close(cli_.owner_of(flow), flow); }

    std::size_t poll_server(engine::engine_event* out, std::size_t max) override {
        return srv_.poll_events(out, max);
    }
    std::size_t poll_client(engine::engine_event* out, std::size_t max) override {
        return cli_.poll_events(out, max);
    }

    void idle(std::int64_t until) override {
        const std::int64_t wait = std::min<std::int64_t>(until - now_ns(), 50'000);
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }

    std::uint64_t half_open() override { return srv_.stats().half_open; }

    layer_snapshot snapshot() override {
        layer_snapshot s;
        s.server = srv_.stats();
        s.client = cli_.stats();
        for (const long tid : server_tids_)
            s.server_shards.push_back(thread_cpu(tid).value_or(cpu_times{}));
        s.client_shard = thread_cpu(client_tid_).value_or(cpu_times{});
        s.generator = thread_cpu(generator_tid_).value_or(cpu_times{});
        s.host = read_host_ticks();
        struct sums {
            std::uint64_t bytes = 0, rtx = 0;
            double loss = 0.0, rate = 0.0;
            std::size_t live = 0;
        };
        engine::shard& csh = cli_.shard_at(0);
        const sums t = on_shard(csh, [this, &csh] {
            sums acc;
            acc.bytes = reaped_bytes_;
            acc.rtx = reaped_rtx_;
            csh.for_each_agent([&acc](std::uint32_t, qtp::agent& a) {
                const auto* tx = dynamic_cast<const qtp::connection_sender*>(&a);
                if (tx == nullptr) return;
                acc.bytes += tx->bytes_sent();
                acc.rtx += tx->rtx_bytes_sent();
                if (tx->closed() || !tx->established()) return;
                ++acc.live;
                acc.rate += tx->cc().pacing_rate() * 8.0;
                acc.loss += tx->active_profile().estimation ==
                                    tfrc::estimation_mode::sender_side
                                ? tx->estimator().loss_event_rate()
                                : tx->cc().loss_rate();
            });
            return acc;
        });
        s.tx_bytes = t.bytes;
        s.tx_rtx_bytes = t.rtx;
        if (t.live > 0) {
            s.loss_event_rate_mean = t.loss / static_cast<double>(t.live);
            s.allowed_rate_bps_mean = t.rate / static_cast<double>(t.live);
        }
        return s;
    }

private:
    /// Runs on the client shard thread (see reapable_senders).
    void arm_client_reaper() {
        engine::shard& sh = cli_.shard_at(0);
        sh.schedule(util::milliseconds(250), [this, &sh] {
            const auto visit = [&sh](const auto& fn) { sh.for_each_agent(fn); };
            for (const std::uint32_t flow : reapable_senders(visit, closed_since_, now_ns())) {
                const auto* tx = dynamic_cast<const qtp::connection_sender*>(sh.find_agent(flow));
                reaped_bytes_ += tx->bytes_sent();
                reaped_rtx_ += tx->rtx_bytes_sent();
                sh.detach_dynamic(flow);
            }
            arm_client_reaper();
        });
    }

    engine::server srv_;
    engine::server cli_;
    std::vector<long> server_tids_;
    long client_tid_ = 0;
    long generator_tid_ = 0;
    // Client shard thread only.
    std::unordered_map<std::uint32_t, std::int64_t> closed_since_;
    std::uint64_t reaped_bytes_ = 0;
    std::uint64_t reaped_rtx_ = 0;
};

} // namespace

std::unique_ptr<transport_pair> make_engine_pair(std::uint64_t seed) {
    return std::make_unique<engine_pair>(seed);
}

} // namespace perfbench
