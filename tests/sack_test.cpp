// SACK reliability components: interval set, reassembly, scoreboard,
// retransmission policy.
#include <gtest/gtest.h>

#include <vector>

#include "sack/reassembly.hpp"
#include "sack/retransmit.hpp"
#include "sack/scoreboard.hpp"
#include "util/rng.hpp"

namespace {

using namespace vtp::sack;
using vtp::packet::sack_feedback_segment;
using vtp::util::milliseconds;
using vtp::util::time_never;

// ---------------------------------------------------------------------------
// interval_set
// ---------------------------------------------------------------------------

TEST(interval_set_test, add_and_contains) {
    interval_set s;
    s.add(10, 20);
    EXPECT_TRUE(s.contains(10, 20));
    EXPECT_TRUE(s.contains(12, 15));
    EXPECT_FALSE(s.contains(9, 11));
    EXPECT_FALSE(s.contains(19, 21));
    EXPECT_EQ(s.total(), 10u);
}

TEST(interval_set_test, adjacent_ranges_merge) {
    interval_set s;
    s.add(0, 10);
    s.add(10, 20);
    EXPECT_EQ(s.range_count(), 1u);
    EXPECT_TRUE(s.contains(0, 20));
}

TEST(interval_set_test, overlapping_ranges_merge) {
    interval_set s;
    s.add(0, 15);
    s.add(10, 30);
    s.add(25, 40);
    EXPECT_EQ(s.range_count(), 1u);
    EXPECT_EQ(s.total(), 40u);
}

TEST(interval_set_test, bridging_range_merges_neighbours) {
    interval_set s;
    s.add(0, 10);
    s.add(20, 30);
    EXPECT_EQ(s.range_count(), 2u);
    s.add(10, 20);
    EXPECT_EQ(s.range_count(), 1u);
    EXPECT_TRUE(s.contains(0, 30));
}

TEST(interval_set_test, empty_add_is_noop) {
    interval_set s;
    s.add(5, 5);
    s.add(7, 3);
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.contains(9, 9)); // empty range trivially contained
}

TEST(interval_set_test, prefix_end_tracks_zero_anchored_prefix) {
    interval_set s;
    EXPECT_EQ(s.prefix_end(), 0u);
    s.add(5, 10);
    EXPECT_EQ(s.prefix_end(), 0u);
    s.add(0, 5);
    EXPECT_EQ(s.prefix_end(), 10u);
    s.add(10, 12);
    EXPECT_EQ(s.prefix_end(), 12u);
}

TEST(interval_set_test, first_gap) {
    interval_set s;
    s.add(0, 10);
    s.add(15, 20);
    EXPECT_EQ(s.first_gap(0), 10u);
    EXPECT_EQ(s.first_gap(10), 10u);
    EXPECT_EQ(s.first_gap(15), 20u);
    EXPECT_EQ(s.first_gap(25), 25u);
}

TEST(interval_set_test, covered_in_partial_overlap) {
    interval_set s;
    s.add(10, 20);
    s.add(30, 40);
    EXPECT_EQ(s.covered_in(0, 50), 20u);
    EXPECT_EQ(s.covered_in(15, 35), 10u);
    EXPECT_EQ(s.covered_in(20, 30), 0u);
    EXPECT_EQ(s.covered_in(12, 18), 6u);
}

TEST(interval_set_test, randomized_against_reference_bitmap) {
    // Two add distributions: uniform, and one where most adds touch or
    // overlap the running end (how acked and in-order bytes arrive).
    // total() and range_count() must match the bitmap after every add.
    for (const bool in_order : {false, true}) {
        vtp::util::rng rng(in_order ? 9041 : 2718);
        interval_set s;
        std::vector<bool> ref(2000, false);
        std::uint64_t cursor = 0;
        for (int i = 0; i < 500; ++i) {
            auto b = static_cast<std::uint64_t>(rng.uniform_int(0, 1900));
            auto len = static_cast<std::uint64_t>(rng.uniform_int(1, 99));
            if (in_order && rng.bernoulli(0.6)) {
                b = cursor - std::min<std::uint64_t>(
                                 cursor, static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
                len = 1 + len % 8;
            }
            s.add(b, b + len);
            for (std::uint64_t k = b; k < b + len; ++k) ref[k] = true;
            cursor = std::min<std::uint64_t>(std::max(cursor, b + len), 1900);

            std::uint64_t ref_total = 0;
            std::size_t ref_ranges = 0;
            for (std::size_t k = 0; k < ref.size(); ++k) {
                if (!ref[k]) continue;
                ++ref_total;
                if (k == 0 || !ref[k - 1]) ++ref_ranges;
            }
            ASSERT_EQ(s.total(), ref_total) << "in_order " << in_order << " add " << i;
            ASSERT_EQ(s.range_count(), ref_ranges) << "in_order " << in_order << " add " << i;
        }
        // Spot-check contains/covered_in against the bitmap.
        for (int i = 0; i < 200; ++i) {
            const auto b = static_cast<std::uint64_t>(rng.uniform_int(0, 1900));
            const auto e = b + static_cast<std::uint64_t>(rng.uniform_int(1, 99));
            bool all = true;
            std::uint64_t cov = 0;
            for (std::uint64_t k = b; k < e && k < ref.size(); ++k) {
                if (ref[k]) ++cov;
                else all = false;
            }
            ASSERT_EQ(s.contains(b, std::min<std::uint64_t>(e, ref.size())), all);
            ASSERT_EQ(s.covered_in(b, std::min<std::uint64_t>(e, ref.size())), cov);
        }
    }
}

// ---------------------------------------------------------------------------
// reassembly
// ---------------------------------------------------------------------------

TEST(reassembly_test, ordered_delivery_stalls_at_gap) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> delivered;
    reassembly r(delivery_order::ordered,
                 [&](std::uint64_t off, std::uint32_t len) { delivered.push_back({off, len}); });
    r.on_data(0, 100, false);
    r.on_data(200, 100, false); // gap at [100,200)
    EXPECT_EQ(r.delivered_bytes(), 100u);
    r.on_data(100, 100, false); // gap filled: rest releases
    EXPECT_EQ(r.delivered_bytes(), 300u);
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[1].first, 100u);
    EXPECT_EQ(delivered[1].second, 200u);
}

TEST(reassembly_test, immediate_delivery_ignores_gaps) {
    reassembly r(delivery_order::immediate);
    r.on_data(0, 100, false);
    r.on_data(500, 100, false);
    EXPECT_EQ(r.delivered_bytes(), 200u);
    EXPECT_EQ(r.in_order_point(), 100u);
}

TEST(reassembly_test, duplicates_counted_not_redelivered) {
    reassembly r(delivery_order::ordered);
    r.on_data(0, 100, false);
    r.on_data(0, 100, false);
    EXPECT_EQ(r.delivered_bytes(), 100u);
    EXPECT_EQ(r.duplicate_bytes(), 100u);
}

TEST(reassembly_test, completion_requires_every_byte) {
    reassembly r(delivery_order::ordered);
    r.on_data(0, 100, false);
    r.on_data(200, 100, true); // eos: stream length 300
    EXPECT_TRUE(r.stream_length_known());
    EXPECT_EQ(r.stream_length(), 300u);
    EXPECT_FALSE(r.complete());
    r.on_data(100, 100, false);
    EXPECT_TRUE(r.complete());
}

TEST(reassembly_test, zero_length_eos_marks_length) {
    reassembly r(delivery_order::ordered);
    r.on_data(0, 100, false);
    r.on_data(100, 0, true);
    EXPECT_TRUE(r.complete());
}

// ---------------------------------------------------------------------------
// scoreboard
// ---------------------------------------------------------------------------

transmission_record tx(std::uint64_t seq, std::uint64_t offset, std::uint32_t len) {
    transmission_record rec;
    rec.seq = seq;
    rec.byte_offset = offset;
    rec.length = len;
    return rec;
}

sack_feedback_segment sack_of(std::vector<vtp::packet::sack_block> blocks) {
    sack_feedback_segment fb;
    fb.blocks = std::move(blocks);
    return fb;
}

TEST(scoreboard_test, ack_marks_bytes_delivered) {
    scoreboard sb;
    sb.record(tx(0, 0, 1000));
    sb.record(tx(1, 1000, 1000));
    std::vector<transmission_record> lost;
    sb.on_sack(sack_of({{0, 2}}), lost);
    EXPECT_TRUE(lost.empty());
    EXPECT_EQ(sb.delivered_bytes(), 2000u);
    EXPECT_EQ(sb.outstanding(), 0u);
}

TEST(scoreboard_test, hole_finalised_after_horizon) {
    scoreboard_config cfg;
    cfg.finalize_horizon = 4;
    scoreboard sb(cfg);
    for (std::uint64_t s = 0; s < 10; ++s) sb.record(tx(s, s * 1000, 1000));
    std::vector<transmission_record> lost;
    // seq 2 missing; highest reported 9 -> limit 5: seq 2 finalised lost.
    sb.on_sack(sack_of({{0, 2}, {3, 10}}), lost);
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0].seq, 2u);
    EXPECT_EQ(lost[0].byte_offset, 2000u);
}

TEST(scoreboard_test, hole_within_horizon_not_finalised) {
    scoreboard_config cfg;
    cfg.finalize_horizon = 16;
    scoreboard sb(cfg);
    for (std::uint64_t s = 0; s < 10; ++s) sb.record(tx(s, s * 1000, 1000));
    std::vector<transmission_record> lost;
    sb.on_sack(sack_of({{0, 2}, {3, 10}}), lost);
    EXPECT_TRUE(lost.empty()); // highest=9 < horizon
    EXPECT_EQ(sb.outstanding(), 1u);
}

TEST(scoreboard_test, bytes_delivered_by_other_seq_not_reported_lost) {
    scoreboard_config cfg;
    cfg.finalize_horizon = 2;
    scoreboard sb(cfg);
    sb.record(tx(0, 0, 1000));  // original, will be lost
    sb.record(tx(1, 1000, 1000));
    sb.record(tx(2, 0, 1000));  // retransmission of the same bytes
    for (std::uint64_t s = 3; s < 8; ++s) sb.record(tx(s, s * 1000, 1000));
    std::vector<transmission_record> lost;
    sb.on_sack(sack_of({{1, 8}}), lost); // seq 0 lost, but bytes 0-1000 came via seq 2
    EXPECT_TRUE(lost.empty());
    EXPECT_EQ(sb.lost_sequences(), 1u);
}

TEST(scoreboard_test, repeated_sacks_idempotent) {
    scoreboard sb;
    sb.record(tx(0, 0, 1000));
    std::vector<transmission_record> lost;
    sb.on_sack(sack_of({{0, 1}}), lost);
    sb.on_sack(sack_of({{0, 1}}), lost);
    EXPECT_EQ(sb.delivered_bytes(), 1000u);
    EXPECT_EQ(sb.acked_sequences(), 1u);
}

// ---------------------------------------------------------------------------
// retransmit queue
// ---------------------------------------------------------------------------

TEST(retransmit_test, mode_none_ignores_everything) {
    retransmit_queue q;
    reliability_policy pol;
    pol.mode = reliability_mode::none;
    q.push(tx(0, 0, 1000), pol);
    EXPECT_TRUE(q.empty());
}

TEST(retransmit_test, full_mode_returns_fifo) {
    retransmit_queue q;
    reliability_policy pol;
    pol.mode = reliability_mode::full;
    q.push(tx(0, 0, 1000), pol);
    q.push(tx(1, 1000, 1000), pol);
    auto a = q.pop(0, pol);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->byte_offset, 0u);
    auto b = q.pop(0, pol);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->byte_offset, 1000u);
    EXPECT_FALSE(q.pop(0, pol).has_value());
}

TEST(retransmit_test, partial_mode_drops_expired_deadline) {
    retransmit_queue q;
    reliability_policy pol;
    pol.mode = reliability_mode::partial;
    pol.partial_margin = milliseconds(50);

    transmission_record stale = tx(0, 0, 1000);
    stale.deadline = milliseconds(100);
    transmission_record fresh = tx(1, 1000, 1000);
    fresh.deadline = milliseconds(1000);
    q.push(stale, pol);
    q.push(fresh, pol);

    // At t=60ms, stale has 40ms < margin left -> abandoned.
    auto got = q.pop(milliseconds(60), pol);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->seq, 1u);
    EXPECT_EQ(q.abandoned_ranges(), 1u);
    EXPECT_EQ(q.abandoned_bytes(), 1000u);
}

TEST(retransmit_test, partial_mode_without_deadline_always_retransmits) {
    retransmit_queue q;
    reliability_policy pol;
    pol.mode = reliability_mode::partial;
    pol.partial_margin = milliseconds(50);
    transmission_record rec = tx(0, 0, 1000);
    rec.deadline = time_never;
    q.push(rec, pol);
    EXPECT_TRUE(q.pop(vtp::util::seconds(100), pol).has_value());
}

TEST(retransmit_test, max_transmissions_cap) {
    retransmit_queue q;
    reliability_policy pol;
    pol.mode = reliability_mode::full;
    pol.max_transmissions = 2;
    transmission_record rec = tx(0, 0, 1000);
    rec.transmit_count = 2; // already sent twice
    q.push(rec, pol);
    EXPECT_FALSE(q.pop(0, pol).has_value());
    EXPECT_EQ(q.abandoned_ranges(), 1u);
}

TEST(retransmit_test, counters) {
    retransmit_queue q;
    reliability_policy pol;
    pol.mode = reliability_mode::full;
    q.push(tx(0, 0, 500), pol);
    q.push(tx(1, 500, 500), pol);
    EXPECT_EQ(q.queued_ranges(), 2u);
    EXPECT_EQ(q.pending(), 2u);
}

} // namespace
