// Tests for the benchmark's own helpers: nearest-rank percentiles against
// a brute-force definition, self time on a synthetic span tree, and the
// choice of quiet quanta for latency.
// Exit status 0 when every check passes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what);
    }
}

/// Definition of the nearest-rank percentile, straight from the samples:
/// the smallest observed value with at least ceil(q * n) samples <= it.
double brute_percentile(const std::vector<double>& v, double q) {
    const double need = std::max(1.0, std::ceil(q * static_cast<double>(v.size())));
    double best = INFINITY;
    for (const double x : v) {
        double at_or_below = 0;
        for (const double y : v) at_or_below += y <= x ? 1 : 0;
        if (at_or_below >= need && x < best) best = x;
    }
    return best;
}

void test_percentiles() {
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n = 1 + rng() % 300;
        std::vector<double> v(n);
        // Few distinct values force ties, which a bucketed estimate gets wrong.
        for (double& x : v) x = static_cast<double>(rng() % (trial % 2 ? 7 : 100000));
        const summary s = summarize(v);
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        double prev = -INFINITY;
        for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
            const double p = nearest_rank(sorted, q);
            check(p == brute_percentile(v, q), "nearest rank matches brute force");
            check(p <= sorted.back(), "percentile never exceeds max");
            check(p >= prev, "percentile monotonic in q");
            prev = p;
        }
        check(s.n == n && s.p50 == brute_percentile(v, 0.5), "summary median");
        check(s.p99 == brute_percentile(v, 0.99), "summary p99");
        check(s.p50 <= s.p99 && s.p99 <= s.max, "summary ordered, <= max");
        const auto beyond = static_cast<double>(n) - std::ceil(s.tail_q * static_cast<double>(n));
        check(s.tail_q == 0.5 || beyond >= 10, "tail percentile keeps 10 samples beyond");
    }
    check(summarize(std::vector<double>(1000, 1.0)).tail_q == 0.99, "n=1000 reports p99");
    check(summarize(std::vector<double>(100, 1.0)).tail_q == 0.9, "n=100 reports p90");
    check(summarize({}).n == 0, "empty summary");
}

void test_self_time() {
    // root [0,100] { a [10,30], b [40,90] { c [50,60] } }, d [95,120] overhangs root.
    std::vector<span> t = {
        {0, 100, -1, 1, 0, 0}, {10, 30, 0, 1, 0, 1}, {40, 90, 0, 1, 0, 2},
        {50, 60, 2, 1, 0, 3},  {95, 120, 0, 1, 0, 4},
    };
    const std::vector<std::int64_t> self = self_times(t);
    check(self[0] == 100 - 20 - 50 - 5, "root self time excludes direct children only");
    check(self[1] == 20, "leaf self time is its duration");
    check(self[2] == 50 - 10, "inner span excludes its child");
    check(self[3] == 10, "grandchild");
    check(self[4] == 25, "overhanging child keeps its own duration");

    // The recorder builds the same shape from nested begin/end calls.
    span_recorder rec(16);
    rec.start();
    const std::int32_t root = rec.begin(0, 9);
    const std::int32_t child = rec.begin(1, 9);
    rec.end(child, 3);
    const std::int32_t empty = rec.begin(2);
    rec.discard(empty);
    rec.end(root);
    const std::int32_t next = rec.begin(4);
    rec.end(next);
    const std::vector<span>& s = rec.spans();
    check(s.size() == 3, "discarded span removed");
    check(s[1].parent == 0 && s[1].arg == 3 && s[1].id == 9, "child links to its parent");
    check(s[2].parent == -1, "span after the root closes is top level");
    const std::vector<std::int64_t> rs = self_times(s);
    check(rs[0] == (s[0].end - s[0].start) - (s[1].end - s[1].start), "recorded self time");
}

} // namespace

void test_quiet_samples() {
    // Quanta 0 and 2 are quiet; 3 lost one tick, 1 lost two.
    const std::vector<quantum> q = {
        {0, {1.0, 2.0}}, {2, {20.0}}, {0, {3.0}}, {1, {10.0, 11.0}},
    };
    check(quiet_samples(q, 0) == std::vector<double>{1.0, 2.0, 3.0}, "quiet quanta only");
    check(quiet_samples(q, 3) == std::vector<double>{1.0, 2.0, 3.0},
          "no stolen quantum when the quiet ones hold enough");
    check(quiet_samples(q, 4) == std::vector<double>{1.0, 2.0, 3.0, 10.0, 11.0},
          "least-stolen quantum added to reach the minimum");
    check(quiet_samples(q, 100).size() == 6, "every quantum when the minimum is out of reach");
    check(quiet_samples({}, 10).empty(), "no quanta");
}

int main() {
    test_percentiles();
    test_self_time();
    test_quiet_samples();
    std::printf("%s (%d failures)\n", failures == 0 ? "helpers_test OK" : "helpers_test FAILED",
                failures);
    return failures == 0 ? 0 : 1;
}
