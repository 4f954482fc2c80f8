// The benchmark's three traffic mixes and the generator that drives them
// through a transport_pair, verifying every delivered byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "transport.hpp"

namespace perfbench {

enum class workload { bulk, short_flows, media };

struct workload_config {
    workload kind = workload::bulk;
    std::uint64_t seed = 1;
    std::int64_t warmup_ns = 1'000'000'000;
    std::int64_t window_ns = 10'000'000'000;
    double arrival_rate = 1200.0; ///< short_flows: Poisson arrivals per second
};

/// One second of the timed window. The end-to-end metrics are taken
/// over the cleanest half of the slices (least host CPU stolen by the
/// hypervisor), so other tenants of a shared host do not decide a run.
struct slice {
    std::uint64_t bytes = 0; ///< verified inside the slice
    double cpu_s = 0.0;      ///< transport CPU inside the slice (transport_cpu_s)
    std::uint64_t stolen_ticks = 0; ///< host CPU ticks stolen inside the slice
};

/// What one run measured. Latency samples are in ms and cover items
/// due inside the timed window.
struct run_result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched_bytes = 0;
    bool generator_valid = true;
    std::string invalid_reason;

    double window_s = 0.0;
    std::uint64_t window_bytes = 0; ///< verified inside the window
    std::uint64_t window_flows = 0; ///< short flows completed inside the window
    double window_cpu_s = 0.0;      ///< transport CPU over the window
    std::vector<slice> slices;
    std::vector<quantum> quanta; ///< latency: chunk / flow completion / message
    std::vector<double> connect_ms; ///< short_flows
    std::uint64_t deadline_msgs = 0;
    std::uint64_t deadline_misses = 0;
    std::vector<double> late_ms; ///< generator lateness vs due time
    std::uint64_t half_open_max = 0;
    layer_snapshot before{};
    layer_snapshot after{};
};

/// The generator state of one run; it outlives the pair it drives.
class generator {
public:
    explicit generator(const workload_config& cfg);
    ~generator();
    generator(const generator&) = delete;
    generator& operator=(const generator&) = delete;

    /// Open the workload's long-lived sessions and wait until all are
    /// established. Throws std::runtime_error when they are not.
    void setup(transport_pair& pair);
    /// Warm-up, the timed window, then drain and verify.
    run_result run(transport_pair& pair);

private:
    struct state;
    std::unique_ptr<state> s_;
};

const char* to_string(workload w);
bool parse_workload(const std::string& name, workload& out);

} // namespace perfbench
