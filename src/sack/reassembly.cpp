#include "sack/reassembly.hpp"

#include <algorithm>

namespace vtp::sack {

void interval_set::add(std::uint64_t begin, std::uint64_t end) {
    if (begin >= end) return;

    // A predecessor touching [begin, end) grows in place, so the common
    // in-order add allocates nothing; otherwise [begin, end) is a new range.
    auto it = ranges_.upper_bound(begin);
    auto host = it;
    if (it != ranges_.begin() && std::prev(it)->second >= begin) {
        host = std::prev(it);
        if (host->second >= end) return; // already covered
        total_ -= host->second - host->first;
        host->second = end;
    } else {
        host = ranges_.emplace_hint(it, begin, end);
    }

    // Swallow every following range the grown one now touches.
    while (it != ranges_.end() && it->first <= host->second) {
        host->second = std::max(host->second, it->second);
        total_ -= it->second - it->first;
        it = ranges_.erase(it);
    }
    total_ += host->second - host->first;
}

void interval_set::remove(std::uint64_t begin, std::uint64_t end) {
    if (begin >= end) return;
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > begin) it = prev;
    }
    while (it != ranges_.end() && it->first < end) {
        const std::uint64_t r_begin = it->first;
        const std::uint64_t r_end = it->second;
        total_ -= r_end - r_begin;
        it = ranges_.erase(it);
        if (r_begin < begin) {
            ranges_.emplace(r_begin, begin);
            total_ += begin - r_begin;
        }
        if (r_end > end) {
            ranges_.emplace(end, r_end);
            total_ += r_end - end;
        }
    }
}

bool interval_set::contains(std::uint64_t begin, std::uint64_t end) const {
    if (begin >= end) return true;
    auto it = ranges_.upper_bound(begin);
    if (it == ranges_.begin()) return false;
    --it;
    return it->first <= begin && end <= it->second;
}

std::uint64_t interval_set::covered_in(std::uint64_t begin, std::uint64_t end) const {
    if (begin >= end) return 0;
    std::uint64_t covered = 0;
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin()) --it;
    for (; it != ranges_.end() && it->first < end; ++it) {
        const std::uint64_t lo = std::max(begin, it->first);
        const std::uint64_t hi = std::min(end, it->second);
        if (hi > lo) covered += hi - lo;
    }
    return covered;
}

std::uint64_t interval_set::prefix_end() const {
    auto it = ranges_.find(0);
    // The first range must start at exactly 0.
    if (it == ranges_.end()) {
        it = ranges_.begin();
        if (it == ranges_.end() || it->first != 0) return 0;
    }
    return it->second;
}

std::uint64_t interval_set::first_gap(std::uint64_t from) const {
    std::uint64_t point = from;
    auto it = ranges_.upper_bound(point);
    if (it != ranges_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > point) point = prev->second;
    }
    while (it != ranges_.end() && it->first <= point) {
        point = std::max(point, it->second);
        ++it;
    }
    return point;
}

reassembly::reassembly(delivery_order order, deliver_fn deliver)
    : order_(order), deliver_(std::move(deliver)) {}

delivered_range reassembly::on_data(std::uint64_t offset, std::uint32_t len,
                                    bool end_of_stream) {
    if (end_of_stream) {
        stream_length_known_ = true;
        stream_length_ = offset + len;
    }
    if (len == 0) return {};

    if (received_.contains(offset, offset + len)) {
        duplicate_bytes_ += len;
        return {};
    }
    received_.add(offset, offset + len);

    if (order_ == delivery_order::immediate) {
        delivered_bytes_ += len;
        if (deliver_) deliver_(offset, len);
        return {offset, len};
    }

    // Ordered: release the newly contiguous prefix.
    const std::uint64_t point = received_.prefix_end();
    if (point > ordered_delivered_to_) {
        const std::uint64_t newly = point - ordered_delivered_to_;
        if (deliver_)
            deliver_(ordered_delivered_to_, static_cast<std::uint32_t>(
                                                std::min<std::uint64_t>(newly, UINT32_MAX)));
        const delivered_range out{ordered_delivered_to_, newly};
        ordered_delivered_to_ = point;
        delivered_bytes_ += newly;
        return out;
    }
    return {};
}

bool reassembly::complete() const {
    return stream_length_known_ && received_.contains(0, stream_length_);
}

} // namespace vtp::sack
