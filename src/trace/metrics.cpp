#include "trace/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace vtp::trace {

std::uint64_t histogram::percentile(double q) const {
    const std::uint64_t total = count();
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the target observation (1-based, ceil).
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
    if (rank == 0) rank = 1;
    if (rank > total) rank = total;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bucket_count; ++i) {
        seen += buckets_[i].load(std::memory_order_relaxed);
        // A bucket's upper bound can lie above every value observed in it.
        if (seen >= rank) return std::min(bucket_upper(i), max());
    }
    return max();
}

void histogram::merge(const histogram& other) {
    for (std::size_t i = 0; i < bucket_count; ++i) {
        const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
        if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
    const std::uint64_t om = other.max();
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (om > prev &&
           !max_.compare_exchange_weak(prev, om, std::memory_order_relaxed)) {
    }
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
histogram::nonzero_buckets() const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < bucket_count; ++i) {
        const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
        if (n != 0) out.emplace_back(bucket_upper(i), n);
    }
    return out;
}

counter& registry::get_counter(const std::string& name, const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    series& s = series_[name];
    if (!s.c) {
        s.c = std::make_unique<counter>();
        if (s.help.empty()) s.help = help;
    }
    return *s.c;
}

gauge& registry::get_gauge(const std::string& name, const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    series& s = series_[name];
    if (!s.g) {
        s.g = std::make_unique<gauge>();
        if (s.help.empty()) s.help = help;
    }
    return *s.g;
}

fgauge& registry::get_fgauge(const std::string& name, const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    series& s = series_[name];
    if (!s.f) {
        s.f = std::make_unique<fgauge>();
        if (s.help.empty()) s.help = help;
    }
    return *s.f;
}

histogram& registry::get_histogram(const std::string& name,
                                   const std::string& help) {
    std::lock_guard<std::mutex> lock(mu_);
    series& s = series_[name];
    if (!s.h) {
        s.h = std::make_unique<histogram>();
        if (s.help.empty()) s.help = help;
    }
    return *s.h;
}

void registry::merge(const registry& other) {
    // Snapshot the other registry's shape, then fold series by name.
    std::vector<std::pair<std::string, const series*>> theirs;
    {
        std::lock_guard<std::mutex> lock(other.mu_);
        for (const auto& [name, s] : other.series_) theirs.emplace_back(name, &s);
    }
    for (const auto& [name, s] : theirs) {
        if (s->c) get_counter(name, s->help).add(s->c->value());
        if (s->g) get_gauge(name, s->help).add(s->g->value());
        if (s->f) get_fgauge(name, s->help).add(s->f->value());
        if (s->h) get_histogram(name, s->help).merge(*s->h);
    }
}

std::size_t registry::series_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return series_.size();
}

std::string prometheus_escape_help(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        if (ch == '\\') out += "\\\\";
        else if (ch == '\n') out += "\\n";
        else out += ch;
    }
    return out;
}

std::string prometheus_escape_label(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        if (ch == '\\') out += "\\\\";
        else if (ch == '"') out += "\\\"";
        else if (ch == '\n') out += "\\n";
        else out += ch;
    }
    return out;
}

std::string registry::prometheus_text() const {
    std::ostringstream os;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, s] : series_) {
        if (!s.help.empty())
            os << "# HELP " << name << ' ' << prometheus_escape_help(s.help)
               << '\n';
        if (s.c) {
            os << "# TYPE " << name << " counter\n";
            os << name << ' ' << s.c->value() << '\n';
        }
        if (s.g) {
            os << "# TYPE " << name << " gauge\n";
            os << name << ' ' << s.g->value() << '\n';
        }
        if (s.f) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.6g", s.f->value());
            os << "# TYPE " << name << " gauge\n";
            os << name << ' ' << buf << '\n';
        }
        if (s.h) {
            os << "# TYPE " << name << " histogram\n";
            std::uint64_t cum = 0;
            for (const auto& [upper, n] : s.h->nonzero_buckets()) {
                cum += n;
                os << name << "_bucket{le=\"" << upper << "\"} " << cum << '\n';
            }
            os << name << "_bucket{le=\"+Inf\"} " << s.h->count() << '\n';
            os << name << "_sum " << s.h->sum() << '\n';
            os << name << "_count " << s.h->count() << '\n';
        }
    }
    return os.str();
}

} // namespace vtp::trace
