#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <random>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {
namespace {

using namespace vtp;

// bulk: closed loop, each stream keeps `bulk_window` bytes unverified.
constexpr std::size_t bulk_sessions = 32;
constexpr std::uint64_t bulk_chunk = 16 * 1024;
constexpr std::uint64_t bulk_window = 8 * bulk_chunk;
// short_flows: one request of 1-16 KB per fresh session.
constexpr std::uint32_t request_min = 1024;
constexpr std::uint32_t request_max = 16 * 1024;
// media: a 200-B deadline message and a ~1000-B bulk feed per session every
// 20 ms (~64 x 480 kb/s), far below what the shards can carry.
constexpr std::size_t media_sessions = 64;
constexpr std::uint64_t message_bytes = 200;
constexpr std::int64_t message_interval = 20'000'000;
constexpr std::int64_t message_deadline = 100'000'000;
constexpr std::uint32_t feed_min = 900; ///< per-session feed size, from the seed
constexpr std::uint32_t feed_max = 1100;
constexpr std::uint32_t packet_size = 1200;

constexpr std::int64_t slice_ns = 1'000'000'000;
constexpr std::int64_t quantum_ns = 200'000'000;
constexpr std::size_t quanta_per_slice = slice_ns / quantum_ns;
constexpr std::int64_t setup_timeout = 10'000'000'000;
constexpr std::int64_t drain_timeout = 20'000'000'000;

/// Payload of every stream: byte `off` of (flow, stream) is
/// table[(key(flow, stream) + off) % period]. Senders read straight from
/// the table and the verifier compares with memcmp; a shifted or foreign
/// byte range mismatches unless the shift is a multiple of the prime
/// period.
class pattern {
public:
    static constexpr std::size_t period = 65521;
    static constexpr std::size_t max_span = 65536; ///< contiguous bytes at() may serve

    explicit pattern(std::uint64_t seed) : table_(period + max_span) {
        std::mt19937_64 rng(seed ^ 0x5bd1e995u);
        for (std::size_t i = 0; i < period; ++i) table_[i] = static_cast<std::uint8_t>(rng());
        std::copy_n(table_.begin(), max_span, table_.begin() + period);
    }

    const std::uint8_t* at(std::uint32_t flow, std::uint32_t stream,
                           std::uint64_t off) const {
        std::uint64_t k = (static_cast<std::uint64_t>(flow) << 8 | stream) * 0x9e3779b97f4a7c15ULL;
        k ^= k >> 31;
        return table_.data() + (k + off) % period;
    }

    bool matches(std::uint32_t flow, std::uint32_t stream, std::uint64_t off,
                 const std::uint8_t* p, std::size_t len) const {
        while (len > 0) {
            const std::size_t n = std::min(len, max_span);
            if (std::memcmp(at(flow, stream, off), p, n) != 0) return false;
            p += n;
            off += n;
            len -= n;
        }
        return true;
    }

private:
    std::vector<std::uint8_t> table_;
};

struct stream_rx {
    std::uint64_t expected = 0; ///< next offset of an in-order stream
    std::uint64_t verified = 0;
    std::uint64_t fin_len = UINT64_MAX;
};

struct flow_state {
    std::uint32_t id = 0;
    std::int64_t due = 0; ///< short_flows: arrival time
    std::uint32_t size = 0;
    bool established = false;
    bool closing = false;
    bool done = false;
    bool failed = false;
    std::uint64_t sent[2] = {0, 0};
    stream_rx rx[2];
    std::deque<std::pair<std::uint64_t, std::int64_t>> chunks[2]; ///< bulk: (end, due)
    // media
    std::int64_t phase = 0;
    std::uint64_t next_msg = 0;
    std::uint64_t next_feed = 0;
    std::uint32_t feed_bytes = 0;
    std::vector<std::uint8_t> got;       ///< bytes seen per message
    std::vector<std::int64_t> completed; ///< per message, 0 = not yet
    std::int64_t msg_due(std::uint64_t k) const {
        return phase + static_cast<std::int64_t>(k) * message_interval;
    }
    std::int64_t feed_due(std::uint64_t k) const {
        return phase + message_interval / 2 + static_cast<std::int64_t>(k) * message_interval;
    }
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

} // namespace

const char* to_string(workload w) {
    switch (w) {
    case workload::bulk: return "bulk";
    case workload::short_flows: return "short_flows";
    case workload::media: return "media";
    }
    return "?";
}

bool parse_workload(const std::string& name, workload& out) {
    for (const workload w : {workload::bulk, workload::short_flows, workload::media})
        if (name == to_string(w)) {
            out = w;
            return true;
        }
    return false;
}

struct generator::state {
    explicit state(const workload_config& c) : cfg(c), rng(c.seed), pat(c.seed) {}

    workload_config cfg;
    std::mt19937_64 rng;
    pattern pat;
    /// Short flows are erased once settled, so the generator's state does
    /// not grow with the run; `used_ids` keeps every id unique.
    std::unordered_map<std::uint32_t, flow_state> flows;
    std::unordered_set<std::uint32_t> used_ids;
    std::atomic<bool> streams_ok{true}; ///< written on the client's thread
    std::vector<engine::engine_event> evs = std::vector<engine::engine_event>(512);
    std::vector<std::pair<std::int64_t, double>> late; ///< (due, late ms)
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    bool issuing = true;
    std::size_t settled = 0; ///< flows done or failed (of res.attempted)
    run_result res;

    bool in_window(std::int64_t t) const { return t >= t0 && t < t1; }
    slice& slice_at(std::int64_t t) {
        return res.slices[static_cast<std::size_t>((t - t0) / slice_ns)];
    }
    void sample(std::int64_t due, double latency) {
        if (in_window(due))
            res.quanta[static_cast<std::size_t>((due - t0) / quantum_ns)].latency_ms.push_back(
                latency);
    }

    std::uint32_t fresh_id() {
        for (;;) {
            const auto id = static_cast<std::uint32_t>(rng() >> 32);
            if (id != 0 && used_ids.insert(id).second) return id;
        }
    }

    session_options options(std::uint32_t id) const {
        session_options o = cfg.kind == workload::media
                                ? session_options::light(sack::reliability_mode::full)
                                : session_options::reliable();
        o.flow_id = id;
        o.packet_size = packet_size;
        return o;
    }

    /// Long-lived sessions open their second stream as soon as they exist.
    void open_long_lived(transport_pair& pair, std::size_t n) {
        stream::stream_options so;
        so.weight = 1;
        if (cfg.kind == workload::media) {
            so.reliability = sack::reliability_mode::partial;
            so.message_size = message_bytes;
            so.message_deadline = message_deadline;
        }
        std::uniform_int_distribution<std::uint32_t> feed(feed_min, feed_max);
        for (std::size_t i = 0; i < n; ++i) {
            flow_state f;
            f.id = fresh_id();
            f.feed_bytes = feed(rng);
            flows.emplace(f.id, f);
            pair.connect(options(f.id), [so, ok = &streams_ok](session& s) {
                if (s.open_stream(so) != 1) ok->store(false);
            });
        }
    }

    void start_short_flow(transport_pair& pair, std::int64_t due, std::int64_t now) {
        flow_state f;
        f.id = fresh_id();
        f.due = due;
        f.size = static_cast<std::uint32_t>(std::uniform_int_distribution<std::uint32_t>(
            request_min, request_max)(rng));
        f.sent[0] = f.size;
        const std::uint8_t* bytes = pat.at(f.id, 0, 0);
        const std::uint32_t size = f.size;
        flows.emplace(f.id, f);
        ++res.attempted;
        if (in_window(due)) late.emplace_back(due, ms(now - due));
        pair.connect(options(f.id), [bytes, size](session& s) {
            s.send(0, std::span<const std::uint8_t>(bytes, size));
            s.close();
        });
    }

    void settle(flow_state& f, bool ok) {
        if (f.done || f.failed) return;
        (ok ? f.done : f.failed) = true;
        ++settled;
        if (!ok) ++res.failed;
    }

    /// Drop a short flow's state once it is settled and its client-side
    /// `established` event was seen (which may be polled after the
    /// server's FIN). Later events for it are ignored.
    void retire(std::unordered_map<std::uint32_t, flow_state>::iterator it) {
        const flow_state& f = it->second;
        if (cfg.kind == workload::short_flows && (f.failed || (f.done && f.established)))
            flows.erase(it);
    }

    void on_readable(flow_state& f, const engine::engine_event& e, std::int64_t t) {
        const std::uint32_t sid = e.ev.stream_id;
        const std::vector<std::uint8_t>& p = e.payload;
        if (p.empty()) return;
        if (sid > 1 || !pat.matches(f.id, sid, e.ev.offset, p.data(), p.size())) {
            res.mismatched_bytes += p.size();
            settle(f, false);
            return;
        }
        stream_rx& rx = f.rx[sid];
        const bool in_order = !(cfg.kind == workload::media && sid == 1);
        if (in_order) {
            if (e.ev.offset != rx.expected) {
                res.mismatched_bytes += p.size();
                settle(f, false);
                return;
            }
            rx.expected += p.size();
        }
        rx.verified += p.size();
        if (in_window(t)) {
            res.window_bytes += p.size();
            slice_at(t).bytes += p.size();
        }
        if (cfg.kind == workload::bulk) {
            auto& q = f.chunks[sid];
            while (!q.empty() && q.front().first <= rx.expected) {
                sample(q.front().second, ms(t - q.front().second));
                q.pop_front();
            }
        } else if (cfg.kind == workload::media && sid == 1) {
            const std::uint64_t end = e.ev.offset + p.size();
            for (std::uint64_t k = e.ev.offset / message_bytes; k * message_bytes < end; ++k) {
                if (k >= f.got.size()) {
                    f.got.resize(k + 1, 0);
                    f.completed.resize(k + 1, 0);
                }
                const std::uint64_t lo = std::max(e.ev.offset, k * message_bytes);
                const std::uint64_t hi = std::min(end, (k + 1) * message_bytes);
                f.got[k] = static_cast<std::uint8_t>(
                    std::min<std::uint64_t>(f.got[k] + (hi - lo), message_bytes));
                if (f.got[k] == message_bytes && f.completed[k] == 0) f.completed[k] = t;
            }
        }
    }

    /// A stream's FIN event announces its final length; the session's
    /// closed event means the peer's FIN arrived. Either completes the
    /// flow once every full-reliability byte is verified. (A session
    /// closed while idle can deliver its FIN before the streams'
    /// end-of-stream markers, so `closed` may be the only event.)
    void on_fin(flow_state& f, std::uint32_t sid, std::uint64_t len, std::int64_t t) {
        if (sid > 1) return;
        f.rx[sid].fin_len = len;
        const bool partial = cfg.kind == workload::media && sid == 1;
        if (!partial && len != f.sent[sid]) settle(f, false);
        complete(f, t, false);
    }

    void complete(flow_state& f, std::int64_t t, bool closed) {
        if (f.done || f.failed) return;
        const std::uint32_t full_streams = cfg.kind == workload::bulk ? 2 : 1;
        bool verified = true, fins = true;
        for (std::uint32_t s = 0; s < full_streams; ++s) {
            verified = verified && f.rx[s].verified == f.sent[s];
            fins = fins && f.rx[s].fin_len == f.sent[s];
        }
        if (!closed && !(verified && fins)) return;
        settle(f, verified);
        if (f.done && cfg.kind == workload::short_flows) {
            sample(f.due, ms(t - f.due));
            if (in_window(t)) ++res.window_flows;
        }
    }

    std::size_t drain(transport_pair& pair) {
        std::size_t total = 0;
        for (;;) {
            const std::size_t n = pair.poll_server(evs.data(), evs.size());
            const std::int64_t t = now_ns();
            for (std::size_t i = 0; i < n; ++i) {
                const engine::engine_event& e = evs[i];
                const auto it = flows.find(e.flow);
                if (it == flows.end()) continue;
                if (e.ev.type == event_type::readable)
                    on_readable(it->second, e, t);
                else if (e.ev.type == event_type::fin)
                    on_fin(it->second, e.ev.stream_id, e.ev.bytes, t);
                else if (e.ev.type == event_type::closed)
                    complete(it->second, t, true);
                retire(it);
            }
            total += n;
            if (n < evs.size()) break;
        }
        for (;;) {
            const std::size_t n = pair.poll_client(evs.data(), evs.size());
            const std::int64_t t = now_ns();
            for (std::size_t i = 0; i < n; ++i) {
                if (evs[i].ev.type != event_type::established) continue;
                const auto it = flows.find(evs[i].flow);
                if (it == flows.end() || it->second.established) continue;
                it->second.established = true;
                if (cfg.kind == workload::short_flows && in_window(it->second.due))
                    res.connect_ms.push_back(ms(t - it->second.due));
                retire(it);
            }
            total += n;
            if (n < evs.size()) break;
        }
        return total;
    }

    /// Issue everything due by `now`; returns when the next item is due.
    std::int64_t issue(transport_pair& pair, std::int64_t now, std::int64_t& next_arrival) {
        std::int64_t next = now + 1'000'000;
        switch (cfg.kind) {
        case workload::short_flows: {
            std::exponential_distribution<double> gap(cfg.arrival_rate);
            while (issuing && next_arrival <= now) {
                start_short_flow(pair, next_arrival, now);
                next_arrival += static_cast<std::int64_t>(gap(rng) * 1e9);
            }
            next = std::min(next, next_arrival);
            break;
        }
        case workload::bulk:
            for (auto& [id, f] : flows) {
                if (!f.established || !issuing) continue;
                for (std::uint32_t sid = 0; sid < 2; ++sid) {
                    while (f.sent[sid] - f.rx[sid].verified < bulk_window &&
                           pair.send(id, sid, pat.at(id, sid, f.sent[sid]), bulk_chunk)) {
                        f.sent[sid] += bulk_chunk;
                        f.chunks[sid].emplace_back(f.sent[sid], now);
                    }
                }
            }
            break;
        case workload::media:
            for (auto& [id, f] : flows) {
                if (!issuing) break;
                while (f.msg_due(f.next_msg) <= now &&
                       pair.send(id, 1, pat.at(id, 1, f.sent[1]), message_bytes)) {
                    const std::int64_t due = f.msg_due(f.next_msg);
                    if (in_window(due)) late.emplace_back(due, ms(now - due));
                    f.sent[1] += message_bytes;
                    ++f.next_msg;
                }
                while (f.feed_due(f.next_feed) <= now &&
                       pair.send(id, 0, pat.at(id, 0, f.sent[0]), f.feed_bytes)) {
                    f.sent[0] += f.feed_bytes;
                    ++f.next_feed;
                }
                next = std::min({next, f.msg_due(f.next_msg), f.feed_due(f.next_feed)});
            }
            break;
        }
        return next;
    }

    /// Stop issuing: long-lived sessions half-close (FIN after the last byte).
    void close_long_lived(transport_pair& pair) {
        for (auto& [id, f] : flows)
            if (!f.closing && pair.close(id)) f.closing = true;
    }

    void finish_media() {
        for (auto& [id, f] : flows) {
            for (std::uint64_t k = 0; k < f.next_msg; ++k) {
                const std::int64_t due = f.msg_due(k);
                if (!in_window(due)) continue;
                ++res.deadline_msgs;
                const std::int64_t at = k < f.completed.size() ? f.completed[k] : 0;
                if (at == 0) {
                    ++res.deadline_misses;
                    continue;
                }
                if (at - due > message_deadline) ++res.deadline_misses;
                sample(due, ms(at - due));
            }
        }
    }

    /// Saturated generator, or lateness growing across the window: the
    /// run measured the generator, not the transport.
    void judge_generator() {
        const double busy =
            (res.after.generator - res.before.generator).total() / res.window_s;
        if (busy > 0.9) {
            res.generator_valid = false;
            res.invalid_reason = "generator thread saturated";
        }
        const std::int64_t mid = t0 + (t1 - t0) / 2;
        std::vector<double> first, second;
        for (const auto& [due, l] : late) (due < mid ? first : second).push_back(l);
        for (const auto& [due, l] : late) res.late_ms.push_back(l);
        if (first.size() >= 100 && second.size() >= 100) {
            const double a = summarize(first).p99;
            const double b = summarize(second).p99;
            if (b > std::max(2.0 * a, a + 10.0)) {
                res.generator_valid = false;
                res.invalid_reason = "generator lateness grows across the window";
            }
        }
    }
};

generator::generator(const workload_config& cfg) : s_(std::make_unique<state>(cfg)) {}
generator::~generator() = default;

void generator::setup(transport_pair& pair) {
    state& s = *s_;
    const std::size_t n = s.cfg.kind == workload::bulk    ? bulk_sessions
                          : s.cfg.kind == workload::media ? media_sessions
                                                          : 0;
    s.res.attempted = n;
    s.open_long_lived(pair, n);
    const std::int64_t deadline = now_ns() + setup_timeout;
    for (;;) {
        s.drain(pair);
        const auto up = static_cast<std::size_t>(std::count_if(
            s.flows.begin(), s.flows.end(), [](const auto& kv) { return kv.second.established; }));
        if (up == n) break;
        if (now_ns() > deadline)
            throw std::runtime_error("long-lived sessions not established in time");
        pair.idle(now_ns() + 1'000'000);
    }
    if (!s.streams_ok.load()) throw std::runtime_error("second stream did not open as id 1");
}

run_result generator::run(transport_pair& pair) {
    state& s = *s_;
    const std::int64_t start = now_ns();
    s.t0 = start + s.cfg.warmup_ns;
    s.t1 = s.t0 + s.cfg.window_ns;
    std::uniform_int_distribution<std::int64_t> phase(0, message_interval - 1);
    for (auto& [id, f] : s.flows) f.phase = start + phase(s.rng);
    std::int64_t next_arrival = start;
    std::int64_t drain_deadline = 0;
    std::int64_t next_sample = start;
    const auto slices = static_cast<std::size_t>(s.cfg.window_ns / slice_ns);
    s.res.slices.resize(slices);
    std::vector<double> edges; ///< transport CPU at t0 + k * slice_ns
    const auto quanta = static_cast<std::size_t>(s.cfg.window_ns / quantum_ns);
    s.res.quanta.resize(quanta);
    std::vector<std::uint64_t> steal_edges; ///< stolen ticks at t0 + k * quantum_ns
    std::vector<bool> late_edges;           ///< read a whole quantum after its time
    for (;;) {
        std::int64_t now = now_ns();
        while (s.issuing && steal_edges.size() <= quanta) {
            const std::int64_t edge =
                s.t0 + static_cast<std::int64_t>(steal_edges.size()) * quantum_ns;
            if (now < edge) break;
            late_edges.push_back(now - edge >= quantum_ns);
            steal_edges.push_back(read_host_ticks().steal);
        }
        if (s.issuing && now >= s.t0 + static_cast<std::int64_t>(edges.size()) * slice_ns) {
            if (edges.empty()) s.res.before = pair.snapshot();
            edges.push_back(transport_cpu_s());
            if (edges.size() == slices + 1) {
                s.res.window_cpu_s = edges.back() - edges.front();
                s.res.after = pair.snapshot();
                s.issuing = false;
                drain_deadline = now + drain_timeout;
            }
        }
        if (!s.issuing && s.cfg.kind != workload::short_flows) s.close_long_lived(pair);
        const std::int64_t next = s.issue(pair, now, next_arrival);
        const std::size_t events = s.drain(pair);
        now = now_ns();
        if (s.in_window(now) && now >= next_sample) {
            s.res.half_open_max = std::max(s.res.half_open_max, pair.half_open());
            next_sample = now + 10'000'000;
        }
        if (!s.issuing && (s.settled == s.res.attempted || now > drain_deadline)) break;
        pair.idle(events > 0 ? now : next);
    }
    s.res.window_s = static_cast<double>(s.t1 - s.t0) / 1e9;
    for (std::size_t i = 0; i < slices; ++i) {
        s.res.slices[i].cpu_s = edges[i + 1] - edges[i];
        s.res.slices[i].stolen_ticks =
            steal_edges[(i + 1) * quanta_per_slice] - steal_edges[i * quanta_per_slice];
    }
    // A quantum whose end was read late may hide a stall: count it as stolen.
    for (std::size_t i = 0; i < quanta; ++i)
        s.res.quanta[i].stolen_ticks =
            late_edges[i + 1] ? UINT64_MAX : steal_edges[i + 1] - steal_edges[i];
    for (auto& [id, f] : s.flows)
        if (!f.done && !f.failed) {
            f.failed = true;
            ++s.res.failed;
        }
    if (s.cfg.kind == workload::media) s.finish_media();
    s.judge_generator();
    return s.res;
}

} // namespace perfbench
