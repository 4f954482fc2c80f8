// vtptrace — decoder for flight-recorder trace files (trace/writer.hpp).
//
// Reads one or more .vtpt files (e.g. the per-shard spools an
// engine::server writes, or a scenario's failure dump), merges their
// records chronologically and renders them three ways:
//
//   vtptrace summary  a.vtpt [b.vtpt ...]      # per-flow digest + totals
//   vtptrace list     a.vtpt --type loss_event # human-readable records
//   vtptrace timeline a.vtpt --flow 7 --out flow7.csv   # per-flow CSV
//   vtptrace qlog     a.vtpt --out trace.qlog.json      # qlog-inspired JSON
//
// Filters: --flow N keeps one flow, --type NAME one record type (list /
// timeline), --limit N caps list output. Merging is a stable sort by
// timestamp, so per-flow record order — the order the tracer wrote — is
// preserved across shard files.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cc/algorithm_id.hpp"
#include "trace/qlog.hpp"
#include "trace/record.hpp"
#include "trace/writer.hpp"

using namespace vtp;

namespace {

struct options {
    std::string command;
    std::vector<std::string> files;
    std::optional<std::uint32_t> flow;
    trace::record_type type = trace::record_type::none; ///< none = all
    std::string out; ///< empty = stdout
    std::size_t limit = 0; ///< list cap; 0 = unlimited
};

int usage() {
    std::fprintf(stderr,
                 "usage: vtptrace <summary|list|timeline|qlog> FILE [FILE...]\n"
                 "                [--flow N] [--type NAME] [--out PATH] "
                 "[--limit N]\n");
    return 2;
}

bool parse(int argc, char** argv, options& o) {
    if (argc < 3) return false;
    o.command = argv[1];
    if (o.command != "summary" && o.command != "list" && o.command != "timeline" &&
        o.command != "qlog")
        return false;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
        if (a == "--flow") {
            o.flow = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 0));
        } else if (a == "--type") {
            o.type = trace::type_from_string(next());
            if (o.type == trace::record_type::none) {
                std::fprintf(stderr, "vtptrace: unknown --type\n");
                return false;
            }
        } else if (a == "--out") {
            o.out = next();
        } else if (a == "--limit") {
            o.limit = static_cast<std::size_t>(std::strtoull(next(), nullptr, 0));
        } else if (!a.empty() && a[0] == '-') {
            return false;
        } else {
            o.files.push_back(a);
        }
    }
    return !o.files.empty();
}

std::vector<trace::record> load(const options& o, bool& ok) {
    std::vector<trace::record> recs;
    ok = true;
    for (const std::string& f : o.files) {
        const std::size_t before = recs.size();
        if (!trace::read_trace_file(f, recs)) {
            std::fprintf(stderr, "vtptrace: cannot read %s\n", f.c_str());
            ok = false;
            continue;
        }
        std::fprintf(stderr, "# %s: %zu records\n", f.c_str(), recs.size() - before);
    }
    // Stable: equal timestamps keep file (= tracer write) order, which is
    // what preserves per-flow causality when merging shard spools.
    std::stable_sort(recs.begin(), recs.end(),
                     [](const trace::record& x, const trace::record& y) {
                         return x.at < y.at;
                     });
    if (o.flow) {
        recs.erase(std::remove_if(recs.begin(), recs.end(),
                                  [&](const trace::record& r) {
                                      return r.flow != *o.flow;
                                  }),
                   recs.end());
    }
    return recs;
}

bool type_match(const options& o, const trace::record& r) {
    return o.type == trace::record_type::none ||
           r.type == static_cast<std::uint8_t>(o.type);
}

/// Per-flow digest for the summary view.
struct flow_digest {
    std::uint64_t first_ns = UINT64_MAX;
    std::uint64_t last_ns = 0;
    std::uint64_t records = 0;
    std::uint64_t pkts_tx = 0, rtx = 0, pkts_rx = 0;
    std::uint64_t bytes_tx = 0, bytes_rx = 0;
    std::uint64_t feedbacks = 0, loss_events = 0, lost_pkts = 0;
    std::uint64_t renegs_applied = 0, timer_fires = 0;
    std::uint64_t last_pacing_bps = 0; ///< pacing rate at the last cc_sample
    std::uint64_t max_rtt_ns = 0, min_rtt_ns = UINT64_MAX, rtt_samples = 0;
    double rtt_sum_ns = 0.0;
    bool established = false, closed = false;
    std::uint8_t cc = 0;
};

int cmd_summary(const std::vector<trace::record>& recs) {
    std::map<std::uint32_t, flow_digest> flows;
    for (const trace::record& r : recs) {
        flow_digest& d = flows[r.flow];
        ++d.records;
        d.first_ns = std::min(d.first_ns, r.at);
        d.last_ns = std::max(d.last_ns, r.at);
        switch (static_cast<trace::record_type>(r.type)) {
        case trace::record_type::packet_tx:
            ++d.pkts_tx;
            d.bytes_tx += r.b;
            if ((r.aux & 1) != 0) ++d.rtx;
            break;
        case trace::record_type::packet_rx:
            ++d.pkts_rx;
            d.bytes_rx += r.b;
            break;
        case trace::record_type::feedback_tx:
            ++d.feedbacks;
            break;
        case trace::record_type::ack_rx:
            if (r.a > 0) {
                ++d.rtt_samples;
                d.rtt_sum_ns += static_cast<double>(r.a);
                d.max_rtt_ns = std::max(d.max_rtt_ns, r.a);
                d.min_rtt_ns = std::min(d.min_rtt_ns, r.a);
            }
            break;
        case trace::record_type::loss_event:
            ++d.loss_events;
            d.lost_pkts += r.a;
            break;
        case trace::record_type::cc_sample:
            d.last_pacing_bps = r.a * 8;
            d.cc = r.aux;
            break;
        case trace::record_type::reneg_applied:
            ++d.renegs_applied;
            d.cc = r.aux;
            break;
        case trace::record_type::established:
            d.established = true;
            d.cc = r.aux;
            break;
        case trace::record_type::closed:
            d.closed = true;
            break;
        case trace::record_type::timer_fire:
            ++d.timer_fires;
            break;
        default:
            break;
        }
    }
    std::printf("%-10s %-8s %-10s %-9s %-9s %-9s %-7s %-6s %-9s %-9s %s\n",
                "flow", "records", "span_ms", "tx", "rtx", "rx", "fb", "loss",
                "rtt_ms", "pace_mbps", "state");
    for (const auto& [flow, d] : flows) {
        const double span_ms =
            d.records > 0 ? static_cast<double>(d.last_ns - d.first_ns) / 1e6 : 0.0;
        const double rtt_ms =
            d.rtt_samples > 0 ? d.rtt_sum_ns / static_cast<double>(d.rtt_samples) / 1e6
                              : 0.0;
        std::string state = d.closed        ? "closed"
                            : d.established ? "established"
                                            : "opening";
        if (d.renegs_applied > 0) {
            // Appended piecewise: "+" + std::to_string(...) trips a GCC 12
            // -Wrestrict false positive.
            state += '+';
            state += std::to_string(d.renegs_applied);
            state += "reneg";
        }
        std::printf("%-10u %-8llu %-10.2f %-9llu %-9llu %-9llu %-7llu %-6llu "
                    "%-9.2f %-9.2f %s(%s)\n",
                    flow, static_cast<unsigned long long>(d.records), span_ms,
                    static_cast<unsigned long long>(d.pkts_tx),
                    static_cast<unsigned long long>(d.rtx),
                    static_cast<unsigned long long>(d.pkts_rx),
                    static_cast<unsigned long long>(d.feedbacks),
                    static_cast<unsigned long long>(d.lost_pkts), rtt_ms,
                    static_cast<double>(d.last_pacing_bps) / 1e6, state.c_str(),
                    cc::to_string(static_cast<cc::algorithm_id>(d.cc)));
    }
    std::printf("# %zu flows, %zu records\n", flows.size(), recs.size());
    return 0;
}

int cmd_list(const options& o, const std::vector<trace::record>& recs) {
    std::size_t shown = 0;
    for (const trace::record& r : recs) {
        if (!type_match(o, r)) continue;
        if (o.limit > 0 && shown >= o.limit) {
            std::printf("# ... truncated at --limit %zu\n", o.limit);
            break;
        }
        ++shown;
        std::printf("%14llu flow=%-8u %-14s stream=%-3u a=%-12llu b=%-12llu aux=%u\n",
                    static_cast<unsigned long long>(r.at), r.flow,
                    trace::type_name(static_cast<trace::record_type>(r.type)),
                    r.stream, static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b), r.aux);
    }
    std::printf("# %zu records\n", shown);
    return 0;
}

int cmd_timeline(const options& o, const std::vector<trace::record>& recs,
                 std::ostream& os) {
    os << "time_ns,flow,type,stream,a,b,aux\n";
    std::size_t rows = 0;
    for (const trace::record& r : recs) {
        if (!type_match(o, r)) continue;
        os << r.at << ',' << r.flow << ','
           << trace::type_name(static_cast<trace::record_type>(r.type)) << ','
           << r.stream << ',' << r.a << ',' << r.b << ','
           << static_cast<unsigned>(r.aux) << '\n';
        ++rows;
    }
    std::fprintf(stderr, "# timeline: %zu rows\n", rows);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    options opt;
    if (!parse(argc, argv, opt)) return usage();

    bool files_ok = false;
    const std::vector<trace::record> recs = load(opt, files_ok);
    if (!files_ok && recs.empty()) return 1;

    std::ofstream file_out;
    std::ostream* os = &std::cout;
    if (!opt.out.empty() && (opt.command == "timeline" || opt.command == "qlog")) {
        file_out.open(opt.out, std::ios::binary);
        if (!file_out) {
            std::fprintf(stderr, "vtptrace: cannot write %s\n", opt.out.c_str());
            return 1;
        }
        os = &file_out;
    }

    int rc = 0;
    if (opt.command == "summary") {
        rc = cmd_summary(recs);
    } else if (opt.command == "list") {
        rc = cmd_list(opt, recs);
    } else if (opt.command == "timeline") {
        rc = cmd_timeline(opt, recs, *os);
    } else { // qlog
        const std::size_t flows = trace::write_qlog_json(recs, *os, opt.flow);
        std::fprintf(stderr, "# qlog: %zu flows\n", flows);
    }
    return files_ok ? rc : 1;
}
