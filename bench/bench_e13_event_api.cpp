// E13 — event-queue API: the poll()/recv() delivery path, and the cost
// of carrying real payload through the wire encoder.
//
// Two measurements:
//  1. Delivery path: an 8 MB payload transfer over a clean simulated
//     dumbbell, consumed through poll()/recv() (event ring + chunk
//     store). Reported as wall clock per run; the run fails if any byte
//     goes missing.
//  2. Encode cost: packet::encode_segment_into of a 1000-byte
//     data_stream frame, length-only vs payload-carrying, ns/op and the
//     implied throughput of the payload memcpy.
//
// --json emits BENCH_e13_event_api.json alongside E11/E12.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "bench_json.hpp"
#include "packet/wire.hpp"
#include "sim/topology.hpp"
#include "util/pattern.hpp"

using namespace vtp;
using util::milliseconds;
using util::seconds;

namespace {

struct transfer_result {
    double wall_s = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t deliveries = 0;
    double sim_s = 0.0;
};

constexpr std::uint64_t transfer_bytes = 8'000'000;

std::vector<std::uint8_t> make_payload(std::size_t n) {
    return util::pattern_buffer(1, 0, n);
}

transfer_result run_transfer(const std::vector<std::uint8_t>& payload) {
    sim::dumbbell_config cfg;
    cfg.pairs = 1;
    cfg.bottleneck_rate_bps = 200e6; // fast clean path: API cost dominates
    cfg.bottleneck_delay = milliseconds(5);
    cfg.access_delay = milliseconds(1);
    sim::dumbbell net(cfg);

    vtp::server srv(net.right_host(0), server_options{});
    session* rx = nullptr;
    transfer_result res;
    srv.set_on_session([&](session& s) { rx = &s; });

    session tx = session::connect(net.left_host(0), net.right_addr(0),
                                  session_options::reliable());
    tx.send(0, std::span<const std::uint8_t>(payload));
    tx.close();

    event evs[32];
    std::uint8_t buf[16384];
    const auto t0 = std::chrono::steady_clock::now();
    while (!tx.closed() && net.sched().now() < seconds(120)) {
        net.sched().run_until(net.sched().now() + milliseconds(20));
        if (rx == nullptr) continue;
        for (std::size_t i = 0, n = rx->poll(evs, 32); i < n; ++i) {
            if (evs[i].type != event_type::readable) continue;
            while (const std::size_t got =
                       rx->recv(evs[i].stream_id, std::span<std::uint8_t>(buf))) {
                res.delivered += got;
                ++res.deliveries;
            }
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    res.wall_s = std::chrono::duration<double>(t1 - t0).count();
    res.sim_s = util::to_seconds(net.sched().now());
    if (rx != nullptr) {
        // Anything still buffered on the closing step.
        while (const std::size_t got = rx->recv(0, std::span<std::uint8_t>(buf)))
            res.delivered += got;
    }
    return res;
}

struct encode_result {
    double ns_per_op = 0.0;
    double mbytes_per_s = 0.0;
};

encode_result measure_encode(bool with_payload) {
    packet::data_stream_segment seg;
    seg.stream_id = 1;
    seg.seq = 1234;
    seg.stream_offset = 987654;
    seg.payload_len = 1000;
    seg.reliability = 1;
    if (with_payload) seg.payload = make_payload(1000);
    const packet::segment body{seg};

    std::uint8_t buf[2048];
    constexpr int iters = 300'000;
    std::size_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        sink += packet::encode_segment_into(body, buf, sizeof buf);
    const auto t1 = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(t1 - t0).count();

    encode_result r;
    r.ns_per_op = elapsed / iters * 1e9;
    r.mbytes_per_s =
        with_payload ? static_cast<double>(iters) * 1000.0 / elapsed / 1e6 : 0.0;
    if (sink == 0) std::printf("?"); // keep the loop observable
    return r;
}

} // namespace

int main(int argc, char** argv) {
    const std::string json = bench::json_path_arg(argc, argv);

    const std::vector<std::uint8_t> payload =
        make_payload(static_cast<std::size_t>(transfer_bytes));

    (void)run_transfer(payload); // warm-up
    const transfer_result polled = run_transfer(payload);

    const encode_result enc_len = measure_encode(false);
    const encode_result enc_pay = measure_encode(true);

    std::printf("# E13 — event-queue API: poll delivery path, payload encode cost\n");
    std::printf("transfer              %llu bytes over a clean 200 Mb/s dumbbell\n",
                static_cast<unsigned long long>(transfer_bytes));
    std::printf("poll mode             %.3f s wall (%llu recv batches, %.1f sim-s)\n",
                polled.wall_s, static_cast<unsigned long long>(polled.deliveries),
                polled.sim_s);
    std::printf("encode length-only    %.0f ns/frame\n", enc_len.ns_per_op);
    std::printf("encode 1000B payload  %.0f ns/frame (%.0f MB/s payload)\n",
                enc_pay.ns_per_op, enc_pay.mbytes_per_s);

    const bool ok = polled.delivered == transfer_bytes;
    if (!ok) std::printf("FAIL: incomplete transfer\n");

    if (!json.empty()) {
        bench::json_report rep("bench_e13_event_api");
        rep.add("transfer_bytes", transfer_bytes);
        rep.add("poll_wall_s", polled.wall_s);
        rep.add("poll_chunks", polled.deliveries);
        rep.add("encode_length_only_ns", enc_len.ns_per_op);
        rep.add("encode_payload_ns", enc_pay.ns_per_op);
        rep.add("encode_payload_mbps", enc_pay.mbytes_per_s);
        rep.add("pass", ok);
        if (!rep.write(json))
            std::fprintf(stderr, "bench_e13: could not write %s\n", json.c_str());
    }
    return ok ? 0 : 1;
}
