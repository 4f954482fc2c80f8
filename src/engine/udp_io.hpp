// Batched UDP datagram I/O for the server engine.
//
// recv_batch()/send_batch() move up to a whole batch of datagrams per
// syscall through recvmmsg(2)/sendmmsg(2) on Linux, degrading gracefully
// to a loop of recvfrom/sendto where the batched calls are unavailable.
// On Linux, send_batch() also coalesces each run of consecutive
// same-flow, same-destination, same-size datagrams into one UDP GSO
// super-datagram (UDP_SEGMENT), and recv_batch() splits coalesced
// receives on sockets that enabled UDP GRO (enable_udp_gro). The
// mmsghdr/iovec scaffolding lives on the stack or inside rx_batch, so
// steady-state receive does one syscall per batch and zero allocation.
// Compare net::udp_host, which deliberately stays on the
// one-datagram-per-syscall path as the legacy baseline
// (bench_e12_engine_throughput measures the gap).
#pragma once

#include <netinet/in.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vtp::engine {

/// Largest datagram the engine sends or receives: 8-byte datapath header
/// ([flow_id:u32][src_addr:u32]) plus the largest wire segment, with
/// generous headroom. The engine drops (and counts) anything bigger:
/// truncated by the kernel to fit a max_datagram slot, or whole in a GRO
/// slot.
inline constexpr std::size_t max_datagram = 2048;

/// Open a non-blocking UDP socket bound to 127.0.0.1:`port`.
/// `reuse_port` joins an SO_REUSEPORT group (one member socket per
/// shard; the kernel spreads inbound datagrams across members). Buffer
/// sizes of 0 keep the system default. Throws std::runtime_error.
int open_udp_socket(std::uint16_t port, bool reuse_port = false,
                    int rcvbuf_bytes = 0, int sndbuf_bytes = 0);

/// 127.0.0.1:`port` destination.
sockaddr_in loopback_addr(std::uint16_t port);

/// Receive slot size for a UDP GRO socket: holds the largest coalesced
/// IPv4 receive (65507 payload bytes) whole.
inline constexpr std::size_t gro_slot_bytes = 64 * 1024;
/// Receive slots per call on a UDP GRO socket (1 MiB of slots).
inline constexpr std::size_t gro_batch_slots = 16;

/// Let `fd` receive coalesced (GRO) datagrams. False off Linux or when
/// the kernel refuses; the socket then keeps receiving one datagram per
/// message.
bool enable_udp_gro(int fd);

/// Attach the flow-steering program to the SO_REUSEPORT group `fd`
/// belongs to: each datagram goes to member socket
/// flow_shard_map(shards).owner(flow id at offset 0), members counted in
/// bind order. False off Linux or when the kernel refuses.
bool attach_flow_steering(int fd, std::size_t shards);

/// Reusable receive batch: caller-owned storage for `capacity` receive
/// slots of `slot_bytes` each. A slot holds one datagram, or on a GRO
/// socket one coalesced receive, which recv_batch splits back into its
/// datagrams; data(i)/len(i)/from(i) index those datagrams. The storage
/// is not zero-filled: only bytes the kernel wrote are ever read.
class rx_batch {
public:
    explicit rx_batch(std::size_t capacity, std::size_t slot_bytes = max_datagram);

    std::size_t capacity() const { return capacity_; }
    const std::uint8_t* data(std::size_t i) const { return dgrams_[i].data; }
    std::size_t len(std::size_t i) const { return dgrams_[i].len; }
    const sockaddr_in& from(std::size_t i) const { return from_[dgrams_[i].slot]; }
    /// The kernel truncated datagram `i` (or the coalesced receive it
    /// came from) to fit its slot (MSG_TRUNC): its tail is gone and what
    /// remains would decode as garbage — the caller must drop it, not
    /// parse it.
    bool truncated(std::size_t i) const { return dgrams_[i].truncated; }

private:
    friend std::size_t recv_batch(int fd, rx_batch& b);

    struct dgram {
        const std::uint8_t* data = nullptr;
        std::uint32_t len = 0;
        std::uint32_t slot = 0;
        bool truncated = false;
    };

    /// Record slot `slot` (`len` bytes) as datagrams of `seg` bytes each
    /// (the last may be shorter); `seg` 0 means one datagram.
    void split(std::size_t slot, std::size_t len, std::size_t seg, bool truncated);

    std::size_t capacity_;
    std::size_t slot_bytes_;
    std::unique_ptr<std::uint8_t[]> storage_; ///< capacity * slot_bytes bytes
    std::vector<sockaddr_in> from_;           ///< per slot
    std::vector<dgram> dgrams_;               ///< per datagram, last call
};

/// Fill `b` with up to its capacity of receive slots in (at most) one
/// syscall. Returns the number of datagrams received, after splitting
/// coalesced receives; 0 means the socket would block.
std::size_t recv_batch(int fd, rx_batch& b);

/// One outbound datagram; `data` stays owned by the caller (typically an
/// engine::buffer_pool buffer) until send_batch returns.
struct tx_item {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    sockaddr_in to{};
};

/// Transmit `n` datagrams in (at most) one syscall, in order. On Linux,
/// each run of consecutive items with the same destination, the same
/// flow id (first 4 bytes) and the same length — the run's last item may
/// be shorter — goes out as one UDP_SEGMENT send of at most 64 segments
/// and 65507 bytes. Returns how many datagrams the kernel accepted; the
/// remainder hit a full send buffer and are dropped by the caller (the
/// transport's loss recovery handles it, exactly as it would a NIC queue
/// overflow).
std::size_t send_batch(int fd, const tx_item* items, std::size_t n);

} // namespace vtp::engine
