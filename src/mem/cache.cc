#include "mem/cache.hh"

#include <algorithm>

#include "check/check.hh"
#include "common/logging.hh"

namespace spburst
{

const char *
cohStateName(CohState state)
{
    switch (state) {
      case CohState::Invalid: return "I";
      case CohState::Shared: return "S";
      case CohState::Exclusive: return "E";
      case CohState::Modified: return "M";
    }
    return "?";
}

const char *
memCmdName(MemCmd cmd)
{
    switch (cmd) {
      case MemCmd::ReadReq: return "ReadReq";
      case MemCmd::ReadPF: return "ReadPF";
      case MemCmd::WriteOwnReq: return "WriteOwnReq";
      case MemCmd::StorePF: return "StorePF";
      case MemCmd::SpbPF: return "SpbPF";
      case MemCmd::Writeback: return "Writeback";
    }
    return "?";
}

SetAssocCache::SetAssocCache(const CacheGeometry &geometry)
    : sets_(geometry.numSets()), ways_(geometry.ways)
{
    SPB_ASSERT(sets_ > 0 && (sets_ & (sets_ - 1)) == 0,
               "cache sets must be a nonzero power of two (got %lu)",
               static_cast<unsigned long>(sets_));
    frames_.reset(static_cast<CacheBlk *>(
        std::calloc(numFrames(), sizeof(CacheBlk))));
    if (!frames_)
        SPB_FATAL("cannot allocate a %zu-frame cache tag array",
                  numFrames());
    tracked_.resize((numFrames() + 63) / 64);
}

CacheBlk *
SetAssocCache::setBase(Addr block_addr)
{
    return &frames_[setIndex(block_addr) * ways_];
}

CacheBlk *
SetAssocCache::find(Addr block_addr)
{
    const Addr aligned = blockAlign(block_addr);
    CacheBlk *base = setBase(aligned);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (isValid(base[w].state) && base[w].tag == aligned)
            return &base[w];
    }
    return nullptr;
}

const CacheBlk *
SetAssocCache::find(Addr block_addr) const
{
    return const_cast<SetAssocCache *>(this)->find(block_addr);
}

void
SetAssocCache::touch(CacheBlk &blk)
{
    blk.lastTouch = ++clock_;
}

CacheBlk &
SetAssocCache::victim(Addr block_addr)
{
    CacheBlk *base = setBase(blockAlign(block_addr));
    CacheBlk *lru = &base[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!isValid(base[w].state))
            return base[w];
        if (base[w].lastTouch < lru->lastTouch)
            lru = &base[w];
    }
    return *lru;
}

void
SetAssocCache::fill(CacheBlk &frame, Addr block_addr, CohState state)
{
    frame.tag = blockAlign(block_addr);
    frame.state = state;
    frame.prefetched = false;
    frame.prefetchUsed = false;
    frame.fillCmd = MemCmd::ReadReq;
    touch(frame);
    track(frame);
}

bool
SetAssocCache::invalidate(Addr block_addr)
{
    CacheBlk *blk = find(block_addr);
    if (!blk)
        return false;
    const bool dirty = blk->state == CohState::Modified;
    blk->state = CohState::Invalid;
    return dirty;
}

void
SetAssocCache::clearTracked()
{
    // Only tracked frames can differ from CacheBlk{}.
    forEachTracked([&](std::size_t i) { frames_[i] = CacheBlk{}; });
    std::fill(tracked_.begin(), tracked_.end(), 0);
}

CacheTagSnapshot
SetAssocCache::snapshotTags() const
{
    CacheTagSnapshot snap;
    snap.lruClock = clock_;
    forEachTracked([&](std::size_t i) {
        const CacheBlk &f = frames_[i];
        if (isValid(f.state)) {
            snap.frames.push_back({static_cast<std::uint32_t>(i), f.tag,
                                   f.state, f.lastTouch});
        }
    });
    return snap;
}

void
SetAssocCache::restoreTags(const CacheTagSnapshot &snap)
{
    clearTracked();
    for (const CacheTagSnapshot::Frame &s : snap.frames) {
        SPB_ASSERT(s.index < numFrames(),
                   "tag snapshot frame %u out of range (array has %zu)",
                   s.index, numFrames());
        CacheBlk &f = frames_[s.index];
        f.tag = s.tag;
        f.state = s.state;
        f.lastTouch = s.lastTouch;
        track(f);
    }
    clock_ = snap.lruClock;
}

void
SetAssocCache::restoreTagsFrom(const SetAssocCache &src)
{
    SPB_ASSERT(&src != this && src.sets_ == sets_ && src.ways_ == ways_,
               "tag transplant between geometries (%lu x %u -> %lu x %u)",
               static_cast<unsigned long>(src.sets_), src.ways_,
               static_cast<unsigned long>(sets_), ways_);
    clearTracked();
    src.forEachValid([&](std::uint32_t i, const CacheBlk &s) {
        CacheBlk &f = frames_[i];
        f.tag = s.tag;
        f.state = s.state;
        f.lastTouch = s.lastTouch;
        track(f);
    });
    clock_ = src.clock_;
}

std::uint64_t
SetAssocCache::validCount() const
{
    std::uint64_t n = 0;
    forEachValid([&](std::uint32_t, const CacheBlk &) { ++n; });
    return n;
}

void
SetAssocCache::auditTracked() const
{
    if (!check::full())
        return;
    std::size_t i = 0;
    for (; i < numFrames(); ++i) {
        const CacheBlk &f = frames_[i];
        const bool tracked = (tracked_[i >> 6] >> (i & 63)) & 1;
        if (!tracked &&
            (f.tag != 0 || f.state != CohState::Invalid ||
             f.lastTouch != 0 || f.prefetched || f.prefetchUsed ||
             f.fillCmd != MemCmd::ReadReq))
            break;
    }
    SPBURST_CHECK_SLOW(Coherence, i == numFrames(),
                       "tag array frame %zu (tag %#llx, state %s) is not "
                       "tracked but differs from an empty frame: a "
                       "restore would miss it",
                       i, static_cast<unsigned long long>(frames_[i].tag),
                       cohStateName(frames_[i].state));
}

} // namespace spburst
