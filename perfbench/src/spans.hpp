// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function: name, start, end,
// the span that was open when it began (its parent) and an id shared by
// every span working on the same datagram. Spans live in a preallocated
// buffer and are written out once, when the run ends. The recorder is
// single-threaded: the traced run drives everything from one loop.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1; ///< index of the enclosing span, -1 at top level
    std::uint32_t id = 0;     ///< datagram id (0 = not tied to one datagram)
    std::uint32_t arg = 0;    ///< work count (datagrams in a batch, events polled)
    std::uint16_t name = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
inline std::vector<std::int64_t> self_times(const std::vector<span>& spans) {
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end - spans[i].start;
    for (const span& c : spans) {
        if (c.parent < 0) continue;
        const span& p = spans[static_cast<std::size_t>(c.parent)];
        const std::int64_t lo = c.start > p.start ? c.start : p.start;
        const std::int64_t hi = c.end < p.end ? c.end : p.end;
        if (hi > lo) self[static_cast<std::size_t>(c.parent)] -= hi - lo;
    }
    return self;
}

class span_recorder {
public:
    explicit span_recorder(std::size_t capacity) : capacity_(capacity) {
        spans_.reserve(capacity + headroom);
    }

    /// Open a span; returns its handle (-1 while recording is off).
    std::int32_t begin(std::uint16_t name, std::uint32_t id = 0) {
        if (!on_) return -1;
        const auto idx = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(span{now_ns(), 0, open_, id, 0, name});
        open_ = idx;
        return idx;
    }

    void end(std::int32_t idx, std::uint32_t arg = 0) {
        if (idx < 0) return;
        span& s = spans_[static_cast<std::size_t>(idx)];
        s.end = now_ns();
        s.arg = arg;
        open_ = s.parent;
    }

    /// Drop the most recent span (an empty poll), which must be closed or
    /// still open at the top of the stack.
    void discard(std::int32_t idx) {
        if (idx < 0 || static_cast<std::size_t>(idx) + 1 != spans_.size()) return;
        open_ = spans_.back().parent;
        spans_.pop_back();
    }

    /// Stop recording once the buffer is nearly full. Call only where no
    /// span is open, so every recorded span stays closed and nested.
    void check_capacity() {
        if (on_ && open_ < 0 && spans_.size() >= capacity_) {
            on_ = false;
            stopped_at_ = now_ns();
        }
    }

    void start() {
        on_ = true;
        started_at_ = now_ns();
    }
    void stop() {
        if (on_) stopped_at_ = now_ns();
        on_ = false;
    }
    bool on() const { return on_; }
    std::uint32_t next_id() { return ++last_id_; }
    const std::vector<span>& spans() const { return spans_; }
    /// Wall time during which spans were recorded.
    std::int64_t recorded_ns() const { return stopped_at_ - started_at_; }

    /// Binary dump: one header line of names, then the raw span records.
    bool write(const std::string& path, const std::vector<std::string>& names) const {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) return false;
        std::string header = "perfbench-spans v1";
        for (const std::string& n : names) header += " " + n;
        header += "\n";
        bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
        if (!spans_.empty())
            ok = ok && std::fwrite(spans_.data(), sizeof(span), spans_.size(), f) ==
                           spans_.size();
        return std::fclose(f) == 0 && ok;
    }

private:
    /// Spans a single loop turn may add after check_capacity() passed.
    static constexpr std::size_t headroom = 1 << 16;
    std::size_t capacity_;
    std::vector<span> spans_;
    std::int32_t open_ = -1;
    std::uint32_t last_id_ = 0;
    bool on_ = false;
    std::int64_t started_at_ = 0;
    std::int64_t stopped_at_ = 0;
};

/// RAII span for a call with no work count.
class scoped_span {
public:
    scoped_span(span_recorder& r, std::uint16_t name, std::uint32_t id = 0)
        : rec_(r), idx_(r.begin(name, id)) {}
    ~scoped_span() { rec_.end(idx_); }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_recorder& rec_;
    std::int32_t idx_;
};

} // namespace perfbench
