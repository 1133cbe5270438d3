/**
 * @file
 * Unit tests for the structural cache pieces: tag array, MSHR file and
 * the DRAM model.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "check/check.hh"
#include "common/clock.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mshr.hh"

namespace spburst
{
namespace
{

CacheGeometry
smallGeom()
{
    return CacheGeometry{4 * 1024, 4}; // 16 sets x 4 ways
}

TEST(CacheGeometry, SetCount)
{
    EXPECT_EQ(smallGeom().numSets(), 16u);
    EXPECT_EQ((CacheGeometry{32 * 1024, 8}.numSets()), 64u);
}

TEST(SetAssocCache, MissThenFillThenHit)
{
    SetAssocCache cache(smallGeom());
    EXPECT_EQ(cache.find(0x1000), nullptr);
    CacheBlk &victim = cache.victim(0x1000);
    cache.fill(victim, 0x1000, CohState::Exclusive);
    CacheBlk *blk = cache.find(0x1000);
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->tag, 0x1000u);
    EXPECT_EQ(blk->state, CohState::Exclusive);
    EXPECT_EQ(cache.validCount(), 1u);
}

TEST(SetAssocCache, FindIsBlockGranular)
{
    SetAssocCache cache(smallGeom());
    cache.fill(cache.victim(0x1000), 0x1000, CohState::Shared);
    EXPECT_NE(cache.find(0x103f), nullptr);
    EXPECT_EQ(cache.find(0x1040), nullptr);
}

TEST(SetAssocCache, LruEviction)
{
    SetAssocCache cache(smallGeom());
    // Fill one set (same set index, different tags).
    const Addr set_stride = 16 * kBlockSize; // sets * blockSize
    std::vector<Addr> addrs;
    for (int i = 0; i < 4; ++i)
        addrs.push_back(0x1000 + i * set_stride);
    for (Addr a : addrs)
        cache.fill(cache.victim(a), a, CohState::Shared);
    EXPECT_EQ(cache.validCount(), 4u);

    // Touch the first one: it becomes MRU; victim must be the second.
    cache.touch(*cache.find(addrs[0]));
    CacheBlk &victim = cache.victim(0x1000 + 4 * set_stride);
    EXPECT_EQ(victim.tag, addrs[1]);
}

TEST(SetAssocCache, VictimPrefersInvalidFrames)
{
    SetAssocCache cache(smallGeom());
    cache.fill(cache.victim(0x1000), 0x1000, CohState::Modified);
    CacheBlk &victim = cache.victim(0x1000 + 16 * kBlockSize);
    EXPECT_EQ(victim.state, CohState::Invalid);
}

TEST(SetAssocCache, InvalidateReportsDirty)
{
    SetAssocCache cache(smallGeom());
    cache.fill(cache.victim(0x1000), 0x1000, CohState::Modified);
    cache.fill(cache.victim(0x2000), 0x2000, CohState::Shared);
    EXPECT_TRUE(cache.invalidate(0x1000));
    EXPECT_FALSE(cache.invalidate(0x2000));
    EXPECT_FALSE(cache.invalidate(0x3000)); // absent
    EXPECT_EQ(cache.validCount(), 0u);
}

TEST(SetAssocCache, FillResetsPrefetchMetadata)
{
    SetAssocCache cache(smallGeom());
    CacheBlk &frame = cache.victim(0x1000);
    frame.prefetched = true;
    frame.prefetchUsed = true;
    cache.fill(frame, 0x1000, CohState::Shared);
    EXPECT_FALSE(frame.prefetched);
    EXPECT_FALSE(frame.prefetchUsed);
}

// ---------------------------------------------------------------------
// Tracked-frame bitmap vs a brute-force walk of the whole array
// ---------------------------------------------------------------------

/** --check=full with violations thrown, for one scope. */
struct FullChecks
{
    check::Level saved = check::level();
    check::ThrowGuard guard;

    FullChecks() { check::setLevel(check::Level::Full); }
    ~FullChecks() { check::setLevel(saved); }
};

/** snapshotTags() computed by walking every frame. */
CacheTagSnapshot
bruteSnapshot(const SetAssocCache &c, std::uint64_t lru_clock)
{
    CacheTagSnapshot snap;
    snap.lruClock = lru_clock;
    for (std::size_t i = 0; i < c.numFrames(); ++i) {
        const CacheBlk &f = c.frameAt(i);
        if (isValid(f.state))
            snap.frames.push_back({static_cast<std::uint32_t>(i), f.tag,
                                   f.state, f.lastTouch});
    }
    return snap;
}

bool
sameSnapshot(const CacheTagSnapshot &a, const CacheTagSnapshot &b)
{
    if (a.lruClock != b.lruClock || a.frames.size() != b.frames.size())
        return false;
    for (std::size_t k = 0; k < a.frames.size(); ++k) {
        const CacheTagSnapshot::Frame &x = a.frames[k];
        const CacheTagSnapshot::Frame &y = b.frames[k];
        if (x.index != y.index || x.tag != y.tag || x.state != y.state ||
            x.lastTouch != y.lastTouch)
            return false;
    }
    return true;
}

/** Every field of every frame equal (valid or not). */
bool
sameFrames(const SetAssocCache &a, const SetAssocCache &b)
{
    if (a.numFrames() != b.numFrames())
        return false;
    for (std::size_t i = 0; i < a.numFrames(); ++i) {
        const CacheBlk &x = a.frameAt(i);
        const CacheBlk &y = b.frameAt(i);
        if (x.tag != y.tag || x.state != y.state ||
            x.lastTouch != y.lastTouch || x.prefetched != y.prefetched ||
            x.prefetchUsed != y.prefetchUsed || x.fillCmd != y.fillCmd)
            return false;
    }
    return true;
}

/** One seeded random step: fill / touch / invalidate / victim probe /
 *  prefetch-metadata write / restore from @p other. */
void
randomStep(std::mt19937_64 &rng, SetAssocCache &c,
           const SetAssocCache &other)
{
    // 64 distinct blocks over 16 sets: conflicts and evictions.
    const Addr addr = 0x10000 + (rng() % 64) * kBlockSize;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        if (c.find(addr) == nullptr) {
            const CohState st =
                static_cast<CohState>(1 + rng() % 3); // S, E or M
            c.fill(c.victim(addr), addr, st);
        }
        break;
      case 3:
        if (CacheBlk *b = c.find(addr))
            c.touch(*b);
        break;
      case 4:
        (void)c.invalidate(addr);
        break;
      case 5:
        (void)c.victim(addr); // a probe must not change anything
        break;
      case 6:
        if (CacheBlk *b = c.find(addr)) {
            b->prefetched = true;
            b->prefetchUsed = rng() % 2 == 0;
            b->fillCmd = MemCmd::SpbPF;
            b->state = CohState::Modified;
        }
        break;
      default:
        if (rng() % 2 == 0)
            c.restoreTags(other.snapshotTags());
        else
            c.restoreTagsFrom(other);
        break;
    }
}

TEST(SetAssocCache, TrackedWalksMatchBruteForce)
{
    const FullChecks full;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::mt19937_64 rng(seed);
        SetAssocCache a(smallGeom());
        SetAssocCache b(smallGeom());
        for (int step = 0; step < 400; ++step) {
            const bool on_a = rng() % 2 == 0;
            randomStep(rng, on_a ? a : b, on_a ? b : a);
            for (const SetAssocCache *c : {&a, &b}) {
                const CacheTagSnapshot snap = c->snapshotTags();
                ASSERT_TRUE(
                    sameSnapshot(snap, bruteSnapshot(*c, snap.lruClock)))
                    << "seed " << seed << " step " << step;
                ASSERT_EQ(c->validCount(), snap.frames.size());
                std::vector<std::uint32_t> visited;
                c->forEachValid([&](std::uint32_t i, const CacheBlk &f) {
                    EXPECT_EQ(&f, &c->frameAt(i));
                    visited.push_back(i);
                });
                ASSERT_EQ(visited.size(), snap.frames.size());
                for (std::size_t k = 0; k < visited.size(); ++k)
                    ASSERT_EQ(visited[k], snap.frames[k].index);
                ASSERT_NO_THROW(c->auditTracked());
            }
        }

        // Both restore paths leave identical arrays, whatever the
        // destination held before.
        SetAssocCache via_snapshot(smallGeom());
        SetAssocCache direct(smallGeom());
        for (int step = 0; step < 200; ++step) {
            randomStep(rng, via_snapshot, b);
            randomStep(rng, direct, b);
        }
        via_snapshot.restoreTags(a.snapshotTags());
        direct.restoreTagsFrom(a);
        EXPECT_TRUE(sameFrames(via_snapshot, direct)) << "seed " << seed;
        EXPECT_TRUE(sameSnapshot(via_snapshot.snapshotTags(),
                                 direct.snapshotTags()));
        EXPECT_TRUE(sameSnapshot(direct.snapshotTags(), a.snapshotTags()));
    }
}

TEST(SetAssocCache, AuditFlagsAnUntrackedFrame)
{
    const FullChecks full;
    SetAssocCache cache(smallGeom());
    cache.fill(cache.victim(0x1000), 0x1000, CohState::Shared);
    EXPECT_NO_THROW(cache.auditTracked());
    // Writing a frame behind fill()'s back leaves it untracked: a
    // restore would not reset it.
    cache.victim(0x2000).lastTouch = 7;
    EXPECT_THROW(cache.auditTracked(), check::CheckViolation);
}

TEST(CohState, OwnershipPredicate)
{
    EXPECT_FALSE(hasOwnership(CohState::Invalid));
    EXPECT_FALSE(hasOwnership(CohState::Shared));
    EXPECT_TRUE(hasOwnership(CohState::Exclusive));
    EXPECT_TRUE(hasOwnership(CohState::Modified));
    EXPECT_STREQ(cohStateName(CohState::Modified), "M");
}

TEST(MemCmd, PredicatesAndNames)
{
    EXPECT_TRUE(isPrefetch(MemCmd::StorePF));
    EXPECT_TRUE(isPrefetch(MemCmd::SpbPF));
    EXPECT_TRUE(isPrefetch(MemCmd::ReadPF));
    EXPECT_FALSE(isPrefetch(MemCmd::ReadReq));
    EXPECT_TRUE(wantsOwnership(MemCmd::WriteOwnReq));
    EXPECT_TRUE(wantsOwnership(MemCmd::SpbPF));
    EXPECT_FALSE(wantsOwnership(MemCmd::ReadPF));
    EXPECT_TRUE(isStorePrefetch(MemCmd::SpbPF));
    EXPECT_FALSE(isStorePrefetch(MemCmd::ReadPF));
    EXPECT_STREQ(memCmdName(MemCmd::SpbPF), "SpbPF");
}

// ---------------------------------------------------------------------
// MSHR file
// ---------------------------------------------------------------------

TEST(Mshr, AllocateFindDeallocate)
{
    MshrFile mshr(4);
    EXPECT_EQ(mshr.find(0x1000), nullptr);
    MshrEntry *e = mshr.allocate(0x1010, MemCmd::ReadReq, 5);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->blockAddr, 0x1000u); // block aligned
    EXPECT_EQ(e->allocCycle, 5u);
    EXPECT_FALSE(e->ownershipRequested);
    EXPECT_EQ(mshr.find(0x1020), e); // same block
    mshr.deallocate(0x1000);
    EXPECT_EQ(mshr.find(0x1000), nullptr);
}

TEST(Mshr, OwnershipFlagTracksCommand)
{
    MshrFile mshr(4);
    EXPECT_TRUE(
        mshr.allocate(0x1000, MemCmd::WriteOwnReq, 0)->ownershipRequested);
    EXPECT_TRUE(mshr.allocate(0x2000, MemCmd::SpbPF, 0)->ownershipRequested);
    EXPECT_FALSE(
        mshr.allocate(0x3000, MemCmd::ReadPF, 0)->ownershipRequested);
}

TEST(Mshr, CapacityEnforced)
{
    MshrFile mshr(2);
    EXPECT_NE(mshr.allocate(0x1000, MemCmd::ReadReq, 0), nullptr);
    EXPECT_NE(mshr.allocate(0x2000, MemCmd::ReadReq, 0), nullptr);
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.allocate(0x3000, MemCmd::ReadReq, 0), nullptr);
    mshr.deallocate(0x1000);
    EXPECT_FALSE(mshr.full());
    EXPECT_NE(mshr.allocate(0x3000, MemCmd::ReadReq, 0), nullptr);
}

TEST(Mshr, TargetsAccumulate)
{
    MshrFile mshr(2);
    MshrEntry *e = mshr.allocate(0x1000, MemCmd::ReadReq, 0);
    e->targets.push_back(MshrTarget{});
    e->targets.push_back(MshrTarget{true, false, false, 3, nullptr});
    EXPECT_EQ(mshr.find(0x1000)->targets.size(), 2u);
}

// ---------------------------------------------------------------------
// DRAM model
// ---------------------------------------------------------------------

TEST(Dram, ReadLatency)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    EXPECT_EQ(dram.read(), 100u);
    EXPECT_EQ(dram.reads(), 1u);
}

TEST(Dram, ChannelOccupancySerializes)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    // Back-to-back reads at cycle 0 on one channel space by occupancy.
    EXPECT_EQ(dram.read(), 100u);
    EXPECT_EQ(dram.read(), 104u);
    EXPECT_EQ(dram.read(), 108u);
    EXPECT_GT(dram.queueDelay(), 0u);
}

TEST(Dram, TwoChannelsDoubleBandwidth)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 2}, &clock);
    EXPECT_EQ(dram.read(), 100u);
    EXPECT_EQ(dram.read(), 100u); // second channel
    EXPECT_EQ(dram.read(), 104u);
    EXPECT_EQ(dram.read(), 104u);
}

TEST(Dram, WritesConsumeBandwidthOnly)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    dram.write();
    EXPECT_EQ(dram.writes(), 1u);
    EXPECT_EQ(dram.read(), 104u); // queued behind the write
}

TEST(Dram, IdleChannelsRecover)
{
    SimClock clock;
    DramModel dram(DramParams{100, 4, 1}, &clock);
    dram.read();
    clock.now = 50;
    EXPECT_EQ(dram.read(), 150u); // no residual queueing
}

} // namespace
} // namespace spburst
