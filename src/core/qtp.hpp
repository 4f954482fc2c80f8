// Hand-wired QTP connection pairs.
//
// Applications should use the socket-style facade in api/session.hpp /
// api/server.hpp: a session connects, negotiates and hosts its endpoint
// on the substrate for you. make_connection() builds both endpoints of
// one connection from a shared connection_config for code that attaches
// them to substrates by hand — simulator fixtures and benches that need
// raw connection_sender / connection_receiver access. The pair runs
// unchanged on the simulator and the live UDP datapath.
#pragma once

#include <memory>

#include "core/connection.hpp"
#include "core/profile.hpp"

namespace vtp::qtp {

/// A configured sender/receiver pair for one connection.
struct connection_pair {
    std::unique_ptr<connection_sender> sender;
    std::unique_ptr<connection_receiver> receiver;
};

/// Any profile/capability combination: the sender proposes `proposal`,
/// the receiver answers with `receiver_caps`.
connection_pair make_connection(std::uint32_t flow_id, std::uint32_t sender_addr,
                                std::uint32_t receiver_addr, const profile& proposal,
                                const capabilities& receiver_caps,
                                connection_config base = {});

} // namespace vtp::qtp
