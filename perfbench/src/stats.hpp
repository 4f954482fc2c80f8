// Sample statistics and process/thread accounting for the benchmark.
//
// Every percentile the benchmark reports comes from its own raw samples
// by nearest rank, so a reported percentile is always one of the
// observed values and never exceeds the maximum (trace::histogram
// reports bucket upper bounds, which can).
#pragma once

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample such that at least ceil(q * n) samples are <= it.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
    const std::size_t n = sorted.size();
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return sorted[rank - 1];
}

/// Median plus the highest percentile that leaves at least ten samples
/// above its rank, with the sample count.
struct summary {
    std::size_t n = 0;
    double p50 = 0.0;
    double p99 = 0.0;    ///< nearest-rank 0.99 (whatever n is)
    double tail = 0.0;   ///< value at tail_q
    double tail_q = 0.0; ///< highest of {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} with >= 10 beyond
    double max = 0.0;
};

inline summary summarize(std::vector<double> samples) {
    summary s;
    s.n = samples.size();
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = nearest_rank(samples, 0.5);
    s.p99 = nearest_rank(samples, 0.99);
    s.max = samples.back();
    s.tail_q = 0.5;
    s.tail = s.p50;
    for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
        const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(s.n)));
        if (s.n >= rank + 10) {
            s.tail_q = q;
            s.tail = nearest_rank(samples, q);
            break;
        }
    }
    return s;
}

/// A 200-ms part of the timed window: the host CPU ticks the hypervisor
/// stole inside it, and the latency of the items due inside it.
struct quantum {
    std::uint64_t stolen_ticks = 0;
    std::vector<double> latency_ms;
};

/// The latency samples of the quiet quanta: every quantum with no stolen
/// tick, then the least-stolen others (earliest first) until there are at
/// least `min_samples`, or all of them. Steal that stalls a vCPU for a
/// few ms stretches every latency it overlaps, so on a shared host only
/// the quiet quanta show what the transport itself takes.
inline std::vector<double> quiet_samples(const std::vector<quantum>& quanta,
                                         std::size_t min_samples) {
    std::vector<std::size_t> order(quanta.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return quanta[a].stolen_ticks < quanta[b].stolen_ticks;
    });
    std::vector<double> out;
    for (const std::size_t i : order) {
        if (quanta[i].stolen_ticks > 0 && out.size() >= min_samples) break;
        out.insert(out.end(), quanta[i].latency_ms.begin(), quanta[i].latency_ms.end());
    }
    return out;
}

/// User and system CPU seconds of one thread or of the whole process.
struct cpu_times {
    double user_s = 0.0;
    double sys_s = 0.0;
    double total() const { return user_s + sys_s; }
    cpu_times operator-(const cpu_times& o) const {
        return {user_s - o.user_s, sys_s - o.sys_s};
    }
};

/// utime/stime of thread `tid` of this process from
/// /proc/self/task/<tid>/stat (clock-tick resolution).
inline std::optional<cpu_times> thread_cpu(long tid) {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
    std::string line;
    if (!std::getline(in, line)) return std::nullopt;
    // The command name may hold spaces; fields resume after its ')'.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) return std::nullopt;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    // After ')': state is field 3; utime and stime are fields 14 and 15.
    for (int f = 3; f <= 15 && rest >> field; ++f) {
        if (f == 14) utime = std::stoull(field);
        if (f == 15) stime = std::stoull(field);
    }
    const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
    return cpu_times{static_cast<double>(utime) / hz, static_cast<double>(stime) / hz};
}

/// Seconds on clock `id` (CLOCK_PROCESS_CPUTIME_ID, CLOCK_THREAD_CPUTIME_ID).
inline double clock_s(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU seconds the process used outside the calling thread. Called from
/// the generator thread, that is the CPU of the transport (both engines):
/// the generator's own polling is not counted.
inline double transport_cpu_s() {
    return clock_s(CLOCK_PROCESS_CPUTIME_ID) - clock_s(CLOCK_THREAD_CPUTIME_ID);
}

/// Host-wide CPU ticks from the first line of /proc/stat: time stolen by
/// the hypervisor, and all ticks (user..steal).
struct host_ticks {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

inline host_ticks read_host_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    host_ticks t;
    for (int f = 0; f < 8; ++f) {
        std::uint64_t v = 0;
        if (!(in >> v)) break;
        t.total += v;
        if (f == 7) t.steal = v;
    }
    return t;
}

/// Peak resident set size of this process in MiB (VmHWM).
inline double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

} // namespace perfbench
