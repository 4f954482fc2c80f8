#include "core/qtp.hpp"

namespace vtp::qtp {

connection_pair make_connection(std::uint32_t flow_id, std::uint32_t sender_addr,
                                std::uint32_t receiver_addr, const profile& proposal,
                                const capabilities& receiver_caps, connection_config base) {
    connection_config sender_cfg = base;
    sender_cfg.flow_id = flow_id;
    sender_cfg.peer_addr = receiver_addr;
    sender_cfg.proposal = proposal;

    connection_config receiver_cfg = base;
    receiver_cfg.flow_id = flow_id;
    receiver_cfg.peer_addr = sender_addr;
    receiver_cfg.caps = receiver_caps;

    connection_pair pair;
    pair.sender = std::make_unique<connection_sender>(sender_cfg);
    pair.receiver = std::make_unique<connection_receiver>(receiver_cfg);
    return pair;
}

} // namespace vtp::qtp
