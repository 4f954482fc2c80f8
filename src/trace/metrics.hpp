// Per-shard metrics: lock-free counters/gauges and log-linear
// (HDR-style) histograms, aggregated on demand and rendered as
// Prometheus text exposition format.
//
// Design point: every series is updated wait-free with relaxed atomics
// (one fetch_add / store on the hot path), so a shard can record
// turn durations and timer latencies at datapath frequency. Series are
// created under a mutex (rare, at wiring time) and live in node-stable
// storage, so the pointer a shard caches at construction stays valid for
// the registry's lifetime. Aggregation (engine::server::metrics())
// snapshots and merges the per-shard registries by series name — no
// cross-shard sharing ever happens on the update path.
//
// The histogram is log-linear: values up to 2^sub_bits are exact, above
// that each power of two splits into 2^sub_bits linear sub-buckets, so
// quantile error is bounded by 1/2^sub_bits (6.25% at sub_bits = 4)
// across the full u64 range with ~1 KB of buckets per histogram.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vtp::trace {

class counter {
public:
    void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> v_{0};
};

class gauge {
public:
    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> v_{0};
};

/// Floating-point gauge for derived series (rates, ratios). Stored as
/// an atomic double; merge sums, matching the per-shard-partition
/// convention of `gauge`.
class fgauge {
public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    void add(double n) {
        double prev = v_.load(std::memory_order_relaxed);
        while (!v_.compare_exchange_weak(prev, prev + n,
                                         std::memory_order_relaxed)) {
        }
    }
    double value() const { return v_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> v_{0.0};
};

class histogram {
public:
    static constexpr int sub_bits = 4;
    static constexpr std::size_t sub_count = std::size_t{1} << sub_bits;
    /// Exponent groups above the exact range (values up to 2^62).
    static constexpr std::size_t groups = 64 - sub_bits;
    static constexpr std::size_t bucket_count = sub_count + groups * sub_count;

    static std::size_t bucket_index(std::uint64_t v) {
        if (v < sub_count) return static_cast<std::size_t>(v);
        const int msb = 63 - std::countl_zero(v);
        const int shift = msb - sub_bits;
        const std::size_t sub =
            static_cast<std::size_t>(v >> shift) - sub_count;
        return static_cast<std::size_t>(shift + 1) * sub_count + sub;
    }

    /// Inclusive upper bound of bucket `i` (what percentile() reports —
    /// a conservative over-estimate by at most one sub-bucket width).
    static std::uint64_t bucket_upper(std::size_t i) {
        if (i < sub_count) return i;
        const std::size_t e = i / sub_count; // = shift + 1 >= 1
        const std::size_t sub = i % sub_count;
        return ((sub_count + sub + 1) << (e - 1)) - 1;
    }

    void observe(std::uint64_t v) {
        buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        std::uint64_t prev = max_.load(std::memory_order_relaxed);
        while (v > prev &&
               !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
        }
    }

    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }

    /// Value at quantile `q` in [0,1]: the upper bound of the bucket the
    /// q-th observation falls in, clamped to max() (0 when empty).
    std::uint64_t percentile(double q) const;

    /// Fold `other` into this histogram (aggregation path; not
    /// linearizable against concurrent observers, like any snapshot).
    void merge(const histogram& other);

    /// Non-empty buckets as (upper bound, count) pairs, ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> nonzero_buckets() const;

private:
    std::atomic<std::uint64_t> buckets_[bucket_count] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/// Named-series registry. One per shard; engine::server merges them.
class registry {
public:
    /// Find-or-create; pointers are stable for the registry's lifetime.
    /// A `help` string is attached on first creation (Prometheus # HELP).
    counter& get_counter(const std::string& name, const std::string& help = "");
    gauge& get_gauge(const std::string& name, const std::string& help = "");
    fgauge& get_fgauge(const std::string& name, const std::string& help = "");
    histogram& get_histogram(const std::string& name, const std::string& help = "");

    /// Read-only view of one series during enumeration. At most one of
    /// the pointers per kind is non-null.
    struct series_view {
        const std::string& name;
        const std::string& help;
        const counter* c;
        const gauge* g;
        const fgauge* f;
        const histogram* h;
    };

    /// Visit every series under the shape lock (values are still live
    /// atomics — reads are relaxed snapshots, like any aggregation).
    /// `fn` must not call back into this registry.
    template <typename Fn>
    void for_each_series(Fn&& fn) const {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [name, s] : series_) {
            fn(series_view{name, s.help, s.c.get(), s.g.get(), s.f.get(),
                           s.h.get()});
        }
    }

    /// Merge every series of `other` into this registry by name (missing
    /// series are created). Counters/histograms accumulate; gauges sum —
    /// per-shard gauges are partitions of an engine-wide quantity.
    void merge(const registry& other);

    /// Prometheus text exposition format (one # HELP/# TYPE block per
    /// series; histograms emit only non-empty cumulative buckets).
    std::string prometheus_text() const;

    std::size_t series_count() const;

private:
    struct series {
        std::string help;
        std::unique_ptr<counter> c;
        std::unique_ptr<gauge> g;
        std::unique_ptr<fgauge> f;
        std::unique_ptr<histogram> h;
    };

    mutable std::mutex mu_; ///< guards map shape only, never updates
    std::map<std::string, series> series_;
};

/// Escape a string for use after `# HELP name ` in the exposition
/// format: backslash and newline are escaped.
std::string prometheus_escape_help(const std::string& s);

/// Escape a string for use inside a double-quoted label value:
/// backslash, double-quote and newline are escaped.
std::string prometheus_escape_label(const std::string& s);

} // namespace vtp::trace
