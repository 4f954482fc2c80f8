// Metrics registry tests: log-linear histogram percentiles checked
// against a brute-force sorted reference, bucket-geometry invariants,
// merge semantics, a multi-threaded registry hammer (totals must be
// exact — updates are wait-free, never lossy), Prometheus text
// rendering (including an exposition-format lint), the sliding
// telemetry window, and the engine-level aggregation surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/server.hpp"
#include "net/udp_host.hpp"
#include "trace/metrics.hpp"
#include "trace/window.hpp"
#include "util/rng.hpp"

namespace {

using namespace vtp;
using trace::counter;
using trace::gauge;
using trace::histogram;
using trace::registry;

TEST(histogram_test, bucket_geometry_invariants) {
    // Every value lands in a bucket whose bounds bracket it, and the
    // relative bucket width stays within the advertised 1/2^sub_bits.
    std::uint64_t probes[] = {0,    1,     15,        16,        17,
                              100,  1023,  1024,      99'999,    1'000'000,
                              1u << 30,    (1ull << 40) + 12345, ~0ull >> 2};
    for (std::uint64_t v : probes) {
        const std::size_t i = histogram::bucket_index(v);
        ASSERT_LT(i, histogram::bucket_count) << v;
        EXPECT_GE(histogram::bucket_upper(i), v) << v;
        if (i > 0) EXPECT_LT(histogram::bucket_upper(i - 1), v) << v;
        if (v >= histogram::sub_count) {
            const double width = static_cast<double>(histogram::bucket_upper(i)) -
                                 static_cast<double>(histogram::bucket_upper(i - 1));
            EXPECT_LE(width / static_cast<double>(v), 1.0 / histogram::sub_count + 1e-9)
                << v;
        }
    }
    // Exact below 2^sub_bits.
    for (std::uint64_t v = 0; v < histogram::sub_count; ++v)
        EXPECT_EQ(histogram::bucket_upper(histogram::bucket_index(v)), v);
}

TEST(histogram_test, percentiles_match_brute_force_within_bucket_error) {
    util::rng rng(42);
    histogram h;
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 20'000; ++i) {
        // Heavy-tailed: uniform exponent, uniform mantissa — exercises
        // the log-linear range, like latency distributions do.
        const unsigned exp = static_cast<unsigned>(rng.next_u64() % 24);
        const std::uint64_t v = rng.next_u64() % ((1ull << exp) + 1);
        values.push_back(v);
        h.observe(v);
    }
    std::sort(values.begin(), values.end());
    ASSERT_EQ(h.count(), values.size());
    EXPECT_EQ(h.max(), values.back());

    std::uint64_t prev = 0;
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
        // Same rank rule percentile() uses: 1-based ceil, clamped.
        std::size_t rank =
            static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
        rank = std::clamp<std::size_t>(rank, 1, values.size());
        const std::uint64_t exact = values[rank - 1];
        const std::uint64_t approx = h.percentile(q);
        // percentile() reports the bucket's inclusive upper bound clamped
        // to the max: never below the true quantile, above by at most one
        // bucket width, never above the max, and monotonic in q.
        EXPECT_GE(approx, exact) << "q=" << q;
        EXPECT_LE(approx, exact + exact / histogram::sub_count + 1) << "q=" << q;
        EXPECT_LE(approx, h.max()) << "q=" << q;
        EXPECT_GE(approx, prev) << "q=" << q;
        prev = approx;
    }
    EXPECT_EQ(h.percentile(1.0), h.max());
    EXPECT_EQ(histogram{}.percentile(0.5), 0u);
}

TEST(histogram_test, percentile_takes_ceil_rank_and_never_exceeds_max) {
    histogram h;
    for (std::uint64_t v = 1; v <= 10; ++v) h.observe(v); // exact buckets
    EXPECT_EQ(h.percentile(0.25), 3u); // rank ceil(2.5) = 3
    EXPECT_EQ(h.percentile(0.5), 5u);
    histogram one;
    one.observe(1000); // its bucket's upper bound lies above 1000
    ASSERT_GT(histogram::bucket_upper(histogram::bucket_index(1000)), 1000u);
    EXPECT_EQ(one.percentile(0.5), 1000u);
    EXPECT_EQ(one.percentile(0.999), 1000u);
}

TEST(histogram_test, merge_accumulates_counts_sums_and_max) {
    histogram a;
    histogram b;
    for (std::uint64_t v = 0; v < 100; ++v) a.observe(v);
    for (std::uint64_t v = 1000; v < 1100; ++v) b.observe(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_EQ(a.sum(), 99u * 100 / 2 + (1000u + 1099u) * 100 / 2);
    EXPECT_EQ(a.max(), 1099u);
    EXPECT_GE(a.percentile(0.9), 1000u);
}

TEST(registry_test, concurrent_observers_never_lose_updates) {
    registry reg;
    counter& hits = reg.get_counter("hits");
    gauge& depth = reg.get_gauge("depth");
    histogram& lat = reg.get_histogram("lat");

    constexpr int n_threads = 8;
    constexpr int per_thread = 50'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                hits.add();
                depth.add(1);
                lat.observe(static_cast<std::uint64_t>(t * per_thread + i));
            }
        });
    // Concurrent find-or-create of the same names from another thread
    // must return the same series objects.
    std::thread racer([&] {
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(&reg.get_counter("hits"), &hits);
    });
    for (auto& th : threads) th.join();
    racer.join();

    constexpr std::uint64_t total = n_threads * per_thread;
    EXPECT_EQ(hits.value(), total);
    EXPECT_EQ(depth.value(), static_cast<std::int64_t>(total));
    EXPECT_EQ(lat.count(), total);
    EXPECT_EQ(lat.sum(), total * (total - 1) / 2);
    EXPECT_EQ(lat.max(), total - 1);
}

TEST(registry_test, merge_by_name_creates_and_accumulates) {
    registry a;
    registry b;
    a.get_counter("shared").add(3);
    b.get_counter("shared").add(4);
    b.get_counter("only_b").add(1);
    a.get_gauge("sessions").set(10);
    b.get_gauge("sessions").set(5);
    b.get_histogram("h").observe(7);
    a.merge(b);
    EXPECT_EQ(a.get_counter("shared").value(), 7u);
    EXPECT_EQ(a.get_counter("only_b").value(), 1u);
    EXPECT_EQ(a.get_gauge("sessions").value(), 15); // shards partition the total
    EXPECT_EQ(a.get_histogram("h").count(), 1u);
    EXPECT_EQ(a.series_count(), 4u);
}

TEST(registry_test, prometheus_text_renders_all_series_kinds) {
    registry reg;
    reg.get_counter("vtp_rx_total", "Datagrams received").add(42);
    reg.get_gauge("vtp_sessions", "Live sessions").set(3);
    histogram& h = reg.get_histogram("vtp_turn_ns", "Shard turn duration");
    h.observe(5);
    h.observe(5000);

    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("# HELP vtp_rx_total Datagrams received"), std::string::npos);
    EXPECT_NE(text.find("# TYPE vtp_rx_total counter"), std::string::npos);
    EXPECT_NE(text.find("vtp_rx_total 42"), std::string::npos);
    EXPECT_NE(text.find("# TYPE vtp_sessions gauge"), std::string::npos);
    EXPECT_NE(text.find("vtp_sessions 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE vtp_turn_ns histogram"), std::string::npos);
    EXPECT_NE(text.find("vtp_turn_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
    EXPECT_NE(text.find("vtp_turn_ns_sum 5005"), std::string::npos);
    EXPECT_NE(text.find("vtp_turn_ns_count 2"), std::string::npos);
    // Cumulative buckets: the +Inf count equals the total, and every
    // rendered bucket count is non-decreasing in le order.
    EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(registry_test, fgauge_accumulates_and_merges) {
    registry a;
    registry b;
    trace::fgauge& fa = a.get_fgauge("vtp_rx_rate", "Windowed rx rate");
    fa.set(1.5);
    fa.add(0.25);
    EXPECT_DOUBLE_EQ(fa.value(), 1.75);
    b.get_fgauge("vtp_rx_rate").set(0.25);
    a.merge(b); // shards partition the total, so merge sums
    EXPECT_DOUBLE_EQ(a.get_fgauge("vtp_rx_rate").value(), 2.0);

    const std::string text = a.prometheus_text();
    EXPECT_NE(text.find("# TYPE vtp_rx_rate gauge"), std::string::npos);
    EXPECT_NE(text.find("vtp_rx_rate 2"), std::string::npos);
}

TEST(registry_test, prometheus_escapes_help_and_labels) {
    EXPECT_EQ(trace::prometheus_escape_help("a\\b\nc"), "a\\\\b\\nc");
    EXPECT_EQ(trace::prometheus_escape_label("say \"hi\"\\\n"),
              "say \\\"hi\\\"\\\\\\n");
    registry reg;
    reg.get_counter("vtp_x_total", "line1\nline2 \\ end").add(1);
    const std::string text = reg.prometheus_text();
    // HELP must stay on one physical line with the newline escaped.
    EXPECT_NE(text.find("# HELP vtp_x_total line1\\nline2 \\\\ end\n"),
              std::string::npos);
}

// Exposition-format lint: every line of the rendered text must be a
// well-formed comment or sample, TYPE must precede its family's
// samples, histogram buckets must be cumulative, and the +Inf bucket
// must equal the family count. This is what external scrapers parse —
// a malformed line breaks every dashboard downstream.
void lint_prometheus_text(const std::string& text) {
    const auto valid_name = [](const std::string& n) {
        if (n.empty()) return false;
        if (!std::isalpha(static_cast<unsigned char>(n[0])) && n[0] != '_' &&
            n[0] != ':')
            return false;
        for (char c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
                c != ':')
                return false;
        return true;
    };
    const auto base_family = [](std::string n) {
        for (const char* suffix : {"_bucket", "_sum", "_count"}) {
            const std::string s = suffix;
            if (n.size() > s.size() && n.compare(n.size() - s.size(), s.size(), s) == 0)
                return n.substr(0, n.size() - s.size());
        }
        return n;
    };
    std::map<std::string, std::string> typed; // family -> type
    std::map<std::string, std::uint64_t> inf_count, hist_count;
    std::map<std::string, std::uint64_t> last_bucket; // cumulative check
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line[0] == '#') {
            std::istringstream ls(line);
            std::string hash, kind, name;
            ls >> hash >> kind >> name;
            ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
            ASSERT_TRUE(valid_name(name)) << line;
            if (kind == "TYPE") {
                std::string type;
                ls >> type;
                ASSERT_TRUE(type == "counter" || type == "gauge" ||
                            type == "histogram")
                    << line;
                typed[name] = type;
            }
            continue;
        }
        // Sample: name[{labels}] value
        const std::size_t brace = line.find('{');
        const std::size_t sp = line.find(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        std::string name, labels;
        if (brace != std::string::npos && brace < sp) {
            name = line.substr(0, brace);
            const std::size_t close = line.find('}', brace);
            ASSERT_NE(close, std::string::npos) << line;
            labels = line.substr(brace + 1, close - brace - 1);
        } else {
            name = line.substr(0, sp);
        }
        ASSERT_TRUE(valid_name(name)) << line;
        const std::string family = base_family(name);
        ASSERT_TRUE(typed.count(family)) << "sample before TYPE: " << line;
        const char* vstr = line.c_str() + line.rfind(' ') + 1;
        char* end = nullptr;
        const double v = std::strtod(vstr, &end);
        ASSERT_TRUE(end != vstr && *end == '\0') << line;
        if (name == family + "_bucket") {
            ASSERT_EQ(typed[family], "histogram") << line;
            const std::size_t le = labels.find("le=\"");
            ASSERT_NE(le, std::string::npos) << line;
            const std::string bound = labels.substr(le + 4, labels.find('"', le + 4) - le - 4);
            const auto c = static_cast<std::uint64_t>(v);
            EXPECT_GE(c, last_bucket[family]) << "non-cumulative: " << line;
            last_bucket[family] = c;
            if (bound == "+Inf") inf_count[family] = c;
        } else if (name == family + "_count") {
            hist_count[family] = static_cast<std::uint64_t>(v);
        }
    }
    for (const auto& [family, c] : hist_count) {
        ASSERT_TRUE(inf_count.count(family)) << family << " has no +Inf bucket";
        EXPECT_EQ(inf_count[family], c) << family;
    }
}

TEST(registry_test, exposition_format_lints_clean) {
    registry reg;
    reg.get_counter("vtp_rx_total", "Datagrams received").add(7);
    reg.get_gauge("vtp_sessions", "Live sessions").set(-2);
    reg.get_fgauge("vtp_rx_rate", "Windowed rate").set(1234.5678);
    histogram& h = reg.get_histogram("vtp_turn_ns", "Turn duration");
    for (std::uint64_t v : {0ull, 5ull, 5000ull, 1ull << 40}) h.observe(v);
    lint_prometheus_text(reg.prometheus_text());
}

TEST(window_test, counters_become_rates_and_hists_become_windowed) {
    registry reg;
    histogram& h = reg.get_histogram("lat");
    trace::window_ring ring(/*span_ns=*/10ull * 1000 * 1000 * 1000);

    // t=0: 100 observations around 1000, counter at 50.
    for (int i = 0; i < 100; ++i) h.observe(1000);
    ring.capture(0, reg, {{"rx", 50}});
    EXPECT_EQ(ring.window().span_ns, 0u); // one snapshot: not enough

    // t=2s: 10 new observations at 1'000'000, counter at 90.
    for (int i = 0; i < 10; ++i) h.observe(1'000'000);
    ring.capture(2'000'000'000, reg, {{"rx", 90}});

    const trace::window_delta d = ring.window();
    EXPECT_EQ(d.span_ns, 2'000'000'000u);
    EXPECT_EQ(d.counter_delta("rx"), 40u);
    EXPECT_DOUBLE_EQ(d.rate_per_s("rx"), 20.0);
    const trace::window_hist_delta* hd = d.hist("lat");
    ASSERT_NE(hd, nullptr);
    // Only the in-window observations: the 100 older ones at 1000 are
    // subtracted away, so even p01 sits at the high mode.
    EXPECT_EQ(hd->count, 10u);
    EXPECT_GE(hd->percentile(0.01), 1'000'000u * 15 / 16);
    EXPECT_GE(hd->max_upper(), 1'000'000u);
}

TEST(window_test, window_ns_picks_base_snapshot_and_merge_sums) {
    registry reg;
    trace::window_ring ring(60ull * 1000 * 1000 * 1000);
    for (std::uint64_t t = 0; t <= 10; ++t)
        ring.capture(t * 1'000'000'000, reg, {{"rx", t * 100}});
    // Ask for a 3 s window: base = snapshot at t=7, newest at t=10.
    const trace::window_delta d = ring.window(3'000'000'000);
    EXPECT_EQ(d.span_ns, 3'000'000'000u);
    EXPECT_EQ(d.counter_delta("rx"), 300u);

    trace::window_delta other;
    other.span_ns = 2'000'000'000;
    other.counters = {{"rx", 5}, {"tx", 7}};
    const trace::window_delta m = trace::merge_window_deltas({d, other});
    EXPECT_EQ(m.span_ns, 3'000'000'000u); // max of parts
    EXPECT_EQ(m.counter_delta("rx"), 305u);
    EXPECT_EQ(m.counter_delta("tx"), 7u);
}

TEST(window_test, eviction_keeps_ring_bounded) {
    registry reg;
    trace::window_ring ring(/*span_ns=*/1'000'000'000, /*max_snapshots=*/8);
    for (std::uint64_t t = 0; t < 100; ++t)
        ring.capture(t * 100'000'000, reg, {});
    EXPECT_LE(ring.size(), 8u);
}

bool sockets_available() {
    try {
        net::event_loop probe_loop;
        net::udp_host probe(probe_loop, 39997);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

TEST(engine_metrics_test, server_aggregates_at_least_twelve_series) {
    if (!sockets_available()) GTEST_SKIP() << "no socket support in sandbox";

    engine::engine_config cfg;
    cfg.port = 42070;
    cfg.shards = 2;
    cfg.rng_seed = 11;
    engine::server srv(cfg);
    srv.start();

    const auto reg = srv.metrics();
    EXPECT_GE(reg->series_count(), 12u);
    const std::string text = srv.metrics_text();
    for (const char* name :
         {"vtp_datagrams_rx_total", "vtp_datagrams_tx_total", "vtp_sessions",
          "vtp_accepted_total", "vtp_events_dropped_total", "vtp_shard_turn_ns",
          "vtp_timer_fire_latency_ns", "vtp_event_ring_occupancy", "vtp_rtt_ns"})
        EXPECT_NE(text.find(name), std::string::npos) << name;
    srv.stop();
}

} // namespace
