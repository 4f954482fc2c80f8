// The transport/substrate boundary.
//
// Every protocol component in this library (TFRC sender/receiver, SACK
// reliability, the TCP baseline, composed QTP connections) is written
// against `environment`: a clock, cancellable timers, a packet
// transmitter and a deterministic random stream. Substrates provide the
// implementation — `sim::host` for the discrete-event simulator,
// `net::udp_host` for the live UDP datapath. Transport code never knows
// which one it is running on; that separation is the "versatile" part of
// the versatile transport protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "packet/segment.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace vtp::qtp {

class agent;

/// Opaque handle for a scheduled timer; valid until it fires or is
/// cancelled.
using timer_id = std::uint64_t;

/// Sentinel returned when no timer is pending.
inline constexpr timer_id no_timer = 0;

/// Services a substrate offers to transport agents.
class environment {
public:
    virtual ~environment() = default;

    /// Current time (simulation clock or monotonic wall clock).
    virtual util::sim_time now() const = 0;

    /// Run `fn` after `delay`; returns a handle for cancel().
    virtual timer_id schedule(util::sim_time delay, std::function<void()> fn) = 0;

    /// Cancel a pending timer; cancelling a fired/unknown handle is a no-op.
    virtual void cancel(timer_id id) = 0;

    /// Transmit a packet toward its destination. The substrate stamps
    /// `src` and `sent_at`.
    virtual void send(packet::packet pkt) = 0;

    /// This endpoint's address (simulator node id / datapath port).
    virtual std::uint32_t local_addr() const = 0;

    /// Deterministic per-host random stream.
    virtual util::rng& random() = 0;

    /// Attach another agent to this endpoint at runtime (used by
    /// qtp::listener to spawn a connection endpoint per accepted SYN).
    /// The substrate takes ownership and start()s the agent.
    virtual void attach_dynamic(std::uint32_t flow_id, std::unique_ptr<agent> a) = 0;

    /// Install the agent that receives packets of flows nobody terminates
    /// yet (the listener hook a vtp::server relies on). Substrates that
    /// cannot host a passive endpoint may leave this a no-op.
    virtual void set_default_agent(agent*) {}

    /// Destroy a dynamically attached agent (connection teardown). Must
    /// not be called from within that agent's own callbacks.
    virtual void detach_dynamic(std::uint32_t) {}

    /// Batched-transmission hint: the base burst, i.e. how many segments
    /// a sender emits back-to-back per on-time pacing slot. Substrates
    /// that batch syscalls (engine shards flushing through sendmmsg)
    /// return >1 so each timer wake-up amortizes across a burst; the
    /// sender stretches the following sleep by the base burst, so the
    /// long-run rate is unchanged. A slot whose timer fires late adds
    /// the segments its rate earned during the lateness (earned credit,
    /// capped at connection_sender::max_slot_bursts base bursts) without
    /// stretching the sleep. The default of 1 keeps per-packet pacing;
    /// the simulator fires timers on time, so it never earns credit and
    /// its runs stay bit-identical.
    virtual std::uint32_t send_burst() const { return 1; }
};

/// A transport endpoint hosted by a substrate. One agent terminates one
/// half of one flow (a sender or a receiver side).
class agent {
public:
    virtual ~agent() = default;

    /// Called once when the agent is attached to a substrate. The
    /// environment outlives the agent.
    virtual void start(environment& env) = 0;

    /// A packet addressed to this agent's flow has arrived.
    virtual void on_packet(const packet::packet& pkt) = 0;

    /// Diagnostic name for traces ("tfrc-sender", "qtp-af", ...).
    virtual std::string name() const = 0;
};

} // namespace vtp::qtp
