#include "engine/udp_io.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "engine/flow_map.hpp"

// recvmmsg/sendmmsg, UDP GSO/GRO and reuseport cBPF are Linux-only
// (glibc >= 2.12, kernel >= 4.18 for GSO, 5.0 for GRO); elsewhere the
// batch functions degrade to one recvfrom/sendto per datagram.
#if defined(__linux__)
#define VTP_HAVE_MMSG 1
#include <linux/filter.h>
#include <netinet/udp.h>
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif
#ifndef SO_ATTACH_REUSEPORT_CBPF
#define SO_ATTACH_REUSEPORT_CBPF 51
#endif
#else
#define VTP_HAVE_MMSG 0
#endif

namespace vtp::engine {

int open_udp_socket(std::uint16_t port, bool reuse_port, int rcvbuf_bytes,
                    int sndbuf_bytes) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) throw std::runtime_error("engine: socket() failed");

    if (reuse_port) {
        const int one = 1;
        if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
            ::close(fd);
            throw std::runtime_error("engine: setsockopt(SO_REUSEPORT) failed");
        }
    }
    if (rcvbuf_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof rcvbuf_bytes);
    if (sndbuf_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes, sizeof sndbuf_bytes);

    sockaddr_in addr = loopback_addr(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("engine: bind() failed");
    }

    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        ::close(fd);
        throw std::runtime_error("engine: fcntl(O_NONBLOCK) failed");
    }
    return fd;
}

sockaddr_in loopback_addr(std::uint16_t port) {
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    a.sin_port = htons(port);
    return a;
}

/// Most segments in one UDP_SEGMENT send (UDP_MAX_SEGMENTS on older
/// kernels) and in one kernel GRO receive.
inline constexpr std::size_t gso_max_segments = 64;

rx_batch::rx_batch(std::size_t capacity, std::size_t slot_bytes)
    : capacity_(capacity ? capacity : 1),
      slot_bytes_(slot_bytes ? slot_bytes : max_datagram),
      storage_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity_ * slot_bytes_)),
      from_(capacity_) {
    // More segments per coalesced receive, from a foreign sender, only
    // grow the vector once.
    dgrams_.reserve(slot_bytes_ > max_datagram ? capacity_ * gso_max_segments
                                               : capacity_);
}

void rx_batch::split(std::size_t slot, std::size_t len, std::size_t seg, bool truncated) {
    const std::uint8_t* base = storage_.get() + slot * slot_bytes_;
    if (seg == 0 || seg > len) seg = len;
    std::size_t off = 0;
    do {
        const std::size_t n = std::min(seg, len - off);
        dgrams_.push_back(dgram{base + off, static_cast<std::uint32_t>(n),
                                static_cast<std::uint32_t>(slot), truncated});
        off += n;
    } while (off < len);
}

// Syscall scaffolding lives on the stack, bounded by a fixed chunk; the
// per-call setup is a few stores per datagram, noise next to a syscall.
inline constexpr std::size_t mmsg_chunk = 64;

#if VTP_HAVE_MMSG

namespace {

/// Most payload bytes of one UDP_SEGMENT send (the IPv4 UDP limit).
constexpr std::size_t gso_max_bytes = 65507;
/// iovecs per sendmmsg call: every datagram of the call has one.
constexpr std::size_t iov_chunk = 256;

/// Room for one UDP_SEGMENT (u16) or UDP_GRO (int) control message.
union udp_cmsg {
    cmsghdr align;
    char buf[CMSG_SPACE(sizeof(int))];
};

/// UDP GSO is probed once per process (setsockopt(UDP_SEGMENT) on a
/// scratch socket) and switched off for good if the kernel later
/// refuses a segmented send.
std::atomic<bool>& gso_enabled() {
    static std::atomic<bool> on{[] {
        const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (fd < 0) return false;
        const int seg = static_cast<int>(max_datagram);
        const bool ok =
            ::setsockopt(fd, IPPROTO_UDP, UDP_SEGMENT, &seg, sizeof seg) == 0;
        ::close(fd);
        return ok;
    }()};
    return on;
}

bool same_dest(const sockaddr_in& a, const sockaddr_in& b) {
    return a.sin_port == b.sin_port && a.sin_addr.s_addr == b.sin_addr.s_addr;
}

/// Datagrams in the GSO run that starts at items[0] (at most `n`): the
/// followers share its destination, flow id and length; a shorter one
/// is the run's last segment.
std::size_t gso_run(const tx_item* items, std::size_t n) {
    const tx_item& first = items[0];
    if (first.len < 4) return 1;
    std::size_t run = 1;
    std::size_t bytes = first.len;
    while (run < n && run < gso_max_segments) {
        const tx_item& it = items[run];
        if (it.len < 4 || it.len > first.len || bytes + it.len > gso_max_bytes ||
            !same_dest(it.to, first.to) || std::memcmp(it.data, first.data, 4) != 0)
            break;
        bytes += it.len;
        ++run;
        if (it.len < first.len) break;
    }
    return run;
}

/// The UDP_GRO segment size the kernel attached to a coalesced receive,
/// or 0.
std::size_t gro_segment_size(msghdr& h) {
    for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c)) {
        if (c->cmsg_level != IPPROTO_UDP || c->cmsg_type != UDP_GRO) continue;
        int seg = 0;
        std::memcpy(&seg, CMSG_DATA(c), sizeof seg);
        return seg > 0 ? static_cast<std::size_t>(seg) : 0;
    }
    return 0;
}

} // namespace

bool enable_udp_gro(int fd) {
    const int one = 1;
    return ::setsockopt(fd, IPPROTO_UDP, UDP_GRO, &one, sizeof one) == 0;
}

bool attach_flow_steering(int fd, std::size_t shards) {
    sock_filter code[] = {
        BPF_STMT(BPF_LD | BPF_W | BPF_ABS, 0), // A = flow id (big-endian)
        BPF_STMT(BPF_ALU | BPF_MUL | BPF_K, flow_shard_map::hash_mul),
        BPF_STMT(BPF_ALU | BPF_RSH | BPF_K, flow_shard_map::hash_shift),
        BPF_STMT(BPF_ALU | BPF_MOD | BPF_K, static_cast<std::uint32_t>(shards)),
        BPF_STMT(BPF_RET | BPF_A, 0), // index into the reuseport group
    };
    sock_fprog prog{static_cast<unsigned short>(std::size(code)), code};
    return ::setsockopt(fd, SOL_SOCKET, SO_ATTACH_REUSEPORT_CBPF, &prog, sizeof prog) == 0;
}

std::size_t recv_batch(int fd, rx_batch& b) {
    mmsghdr msgs[mmsg_chunk];
    iovec iovs[mmsg_chunk];
    udp_cmsg ctrl[mmsg_chunk];
    b.dgrams_.clear();
    std::size_t slots = 0;
    while (slots < b.capacity_) {
        const std::size_t k = std::min(mmsg_chunk, b.capacity_ - slots);
        for (std::size_t i = 0; i < k; ++i) {
            iovs[i].iov_base = b.storage_.get() + (slots + i) * b.slot_bytes_;
            iovs[i].iov_len = b.slot_bytes_;
            ::memset(&msgs[i], 0, sizeof msgs[i]);
            msgs[i].msg_hdr.msg_iov = &iovs[i];
            msgs[i].msg_hdr.msg_iovlen = 1;
            msgs[i].msg_hdr.msg_name = &b.from_[slots + i];
            msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
            msgs[i].msg_hdr.msg_control = ctrl[i].buf;
            msgs[i].msg_hdr.msg_controllen = sizeof ctrl[i].buf;
        }
        const int n =
            ::recvmmsg(fd, msgs, static_cast<unsigned>(k), MSG_DONTWAIT, nullptr);
        if (n <= 0) break;
        for (int i = 0; i < n; ++i) {
            // An oversized receive is silently cut to the slot size; the
            // kernel flags it per message. Surface it so the shard drops
            // the fragment instead of feeding garbage to the decoder.
            msghdr& h = msgs[i].msg_hdr;
            b.split(slots + static_cast<std::size_t>(i), msgs[i].msg_len,
                    gro_segment_size(h), (h.msg_flags & MSG_TRUNC) != 0);
        }
        slots += static_cast<std::size_t>(n);
        if (static_cast<std::size_t>(n) < k) break; // drained
    }
    return b.dgrams_.size();
}

std::size_t send_batch(int fd, const tx_item* items, std::size_t n) {
    mmsghdr msgs[mmsg_chunk];
    iovec iovs[iov_chunk];
    udp_cmsg ctrl[mmsg_chunk];
    std::size_t segs[mmsg_chunk]; // datagrams per message
    std::size_t sent = 0;
    while (sent < n) {
        const bool gso = gso_enabled().load(std::memory_order_relaxed);
        std::size_t k = 0;
        std::size_t used = 0;
        for (std::size_t next = sent; next < n && k < mmsg_chunk && used < iov_chunk; ++k) {
            const std::size_t run =
                gso ? gso_run(items + next, std::min(n - next, iov_chunk - used)) : 1;
            for (std::size_t j = 0; j < run; ++j) {
                iovs[used + j].iov_base = const_cast<std::uint8_t*>(items[next + j].data);
                iovs[used + j].iov_len = items[next + j].len;
            }
            msghdr& h = msgs[k].msg_hdr;
            ::memset(&msgs[k], 0, sizeof msgs[k]);
            h.msg_iov = &iovs[used];
            h.msg_iovlen = run;
            h.msg_name = const_cast<sockaddr_in*>(&items[next].to);
            h.msg_namelen = sizeof(sockaddr_in);
            if (run > 1) {
                h.msg_control = ctrl[k].buf;
                h.msg_controllen = CMSG_SPACE(sizeof(std::uint16_t));
                cmsghdr* c = CMSG_FIRSTHDR(&h);
                c->cmsg_level = IPPROTO_UDP;
                c->cmsg_type = UDP_SEGMENT;
                c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
                const auto seg = static_cast<std::uint16_t>(items[next].len);
                std::memcpy(CMSG_DATA(c), &seg, sizeof seg);
            }
            segs[k] = run;
            used += run;
            next += run;
        }
        const int r = ::sendmmsg(fd, msgs, static_cast<unsigned>(k), MSG_DONTWAIT);
        if (r < 0 && segs[0] > 1 && (errno == EINVAL || errno == EIO)) {
            // The kernel cannot segment here after all: plain sends from
            // now on, starting with this very run.
            gso_enabled().store(false, std::memory_order_relaxed);
            continue;
        }
        if (r <= 0) break;
        for (int i = 0; i < r; ++i) sent += segs[i];
        if (static_cast<std::size_t>(r) < k) break; // send buffer full
    }
    return sent;
}

#else // portable one-datagram-per-syscall fallback

bool enable_udp_gro(int) { return false; }

bool attach_flow_steering(int, std::size_t) { return false; }

std::size_t recv_batch(int fd, rx_batch& b) {
    b.dgrams_.clear();
    for (std::size_t slot = 0; slot < b.capacity_; ++slot) {
        socklen_t addrlen = sizeof(sockaddr_in);
        const ssize_t r = ::recvfrom(fd, b.storage_.get() + slot * b.slot_bytes_,
                                     b.slot_bytes_, MSG_DONTWAIT,
                                     reinterpret_cast<sockaddr*>(&b.from_[slot]), &addrlen);
        if (r < 0) break;
        // No portable per-message MSG_TRUNC without the mmsg path: a
        // read that exactly fills the slot is (conservatively) treated
        // as truncated — real engine datagrams are always smaller.
        b.split(slot, static_cast<std::size_t>(r), 0,
                static_cast<std::size_t>(r) >= b.slot_bytes_);
    }
    return b.dgrams_.size();
}

std::size_t send_batch(int fd, const tx_item* items, std::size_t n) {
    std::size_t sent = 0;
    for (; sent < n; ++sent) {
        const tx_item& it = items[sent];
        const ssize_t r =
            ::sendto(fd, it.data, it.len, MSG_DONTWAIT,
                     reinterpret_cast<const sockaddr*>(&it.to), sizeof it.to);
        if (r < 0) break;
    }
    return sent;
}

#endif

} // namespace vtp::engine
