// Flow-id → shard mapping. Every shard (and every forwarding decision)
// must agree on which shard owns a flow, so the mapping is a pure
// function of the flow id: a 32-bit multiplicative (Fibonacci) hash to
// decorrelate adjacent ids (auto-assigned session ids are sequential),
// then a modulo. It stays inside 32-bit arithmetic on purpose: the
// kernel runs the very same function as a classic-BPF SO_REUSEPORT
// program (attach_flow_steering, udp_io.hpp), so a datagram lands on its
// owner shard's socket directly. Agents for a flow are only ever attached
// on its owner shard, which is what keeps the per-shard runtime
// lock-free.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vtp::engine {

class flow_shard_map {
public:
    /// Multiplier (2^32 / golden ratio, odd) and shift of hash(); the
    /// steering program is built from these two constants.
    static constexpr std::uint32_t hash_mul = 0x9e3779b1u;
    static constexpr std::uint32_t hash_shift = 16;

    explicit flow_shard_map(std::size_t shards) : shards_(shards ? shards : 1) {}

    std::size_t owner(std::uint32_t flow_id) const {
        return static_cast<std::size_t>(hash(flow_id) % shards_);
    }

    std::size_t shards() const { return shards_; }

    /// `LD W ABS 0; MUL hash_mul; RSH hash_shift` in cBPF's 32-bit ALU.
    static std::uint32_t hash(std::uint32_t flow_id) {
        return (flow_id * hash_mul) >> hash_shift;
    }

private:
    std::size_t shards_;
};

} // namespace vtp::engine
