/**
 * @file
 * Set-associative cache tag/data array with LRU replacement.
 *
 * This class is purely structural (lookup / insert / evict / state);
 * all timing, MSHRs, and hierarchy logic live in CacheController.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "mem/coherence.hh"
#include "mem/request.hh"

namespace spburst
{

/** One cache block frame. */
struct CacheBlk
{
    Addr tag = 0;                        //!< block address (full, aligned)
    CohState state = CohState::Invalid;  //!< MESI state
    std::uint64_t lastTouch = 0;         //!< LRU timestamp
    bool prefetched = false;             //!< filled by a prefetch
    bool prefetchUsed = false;           //!< demand-referenced since fill
    MemCmd fillCmd = MemCmd::ReadReq;    //!< command that caused the fill
};

// SetAssocCache takes its frame array from calloc: a zero-filled frame
// must be exactly CacheBlk{}.
static_assert(std::is_trivially_copyable_v<CacheBlk> &&
                  std::is_trivially_destructible_v<CacheBlk>,
              "CacheBlk frames live in raw calloc'd memory");
static_assert(static_cast<int>(CohState::Invalid) == 0 &&
                  static_cast<int>(MemCmd::ReadReq) == 0,
              "every CacheBlk{} field must be all-zero bytes");

/** Geometry of a cache. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (kBlockSize * ways);
    }
};

/**
 * Point-in-time copy of a cache's valid frames and LRU clock. The
 * sampling subsystem uses these to transplant functionally-warmed tag
 * state into the detailed machine at each window start and to
 * serialize it into architectural checkpoints (see src/sample).
 */
struct CacheTagSnapshot
{
    struct Frame
    {
        std::uint32_t index = 0; //!< frame index: set * ways + way
        Addr tag = 0;
        CohState state = CohState::Invalid;
        std::uint64_t lastTouch = 0;
    };
    std::uint64_t lruClock = 0;
    std::vector<Frame> frames; //!< valid frames only, index-ascending
};

/** Structural set-associative cache with LRU replacement. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geometry);

    /** Find the frame holding @p block_addr, or nullptr. Does NOT touch
     *  LRU state; call touch() on a real access. */
    // spburst-lint: hot
    CacheBlk *find(Addr block_addr);
    const CacheBlk *find(Addr block_addr) const;

    /** Promote a block to MRU. */
    // spburst-lint: hot
    void touch(CacheBlk &blk);

    /**
     * Choose a victim frame in @p block_addr's set: an invalid frame if
     * one exists, otherwise the LRU block. The caller is responsible
     * for writing back the victim if dirty and then overwriting it.
     */
    CacheBlk &victim(Addr block_addr);

    /** Install @p block_addr into @p frame with the given state. */
    // spburst-lint: hot
    void fill(CacheBlk &frame, Addr block_addr, CohState state);

    /** Invalidate a block if present; returns true if it was dirty. */
    bool invalidate(Addr block_addr);

    /** Number of valid blocks (for tests / occupancy stats). */
    std::uint64_t validCount() const;

    std::uint64_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }

    /** Number of frames (sets * ways). */
    std::size_t numFrames() const { return sets_ * ways_; }

    /** Frame @p index (set-major), valid or not; for tests and audits. */
    const CacheBlk &
    frameAt(std::size_t index) const
    {
        return frames_[index];
    }

    /** Call @p fn(index, frame) for every valid frame, index-ascending.
     *  Costs O(frames filled or restored since the last restore), not
     *  O(frames). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        forEachTracked([&](std::size_t i) {
            if (isValid(frames_[i].state))
                fn(static_cast<std::uint32_t>(i), frames_[i]);
        });
    }

    /** Copy out the valid frames and LRU clock. */
    CacheTagSnapshot snapshotTags() const;

    /** Replace the whole array content with @p snap: every frame not in
     *  the snapshot becomes invalid, LRU order is reproduced exactly.
     *  Prefetch metadata of restored frames is cleared (functional
     *  warming models demand traffic only). */
    void restoreTags(const CacheTagSnapshot &snap);

    /** restoreTags(src.snapshotTags()) without the intermediate copy;
     *  @p src must have the same geometry. */
    void restoreTagsFrom(const SetAssocCache &src);

    /** --check=full audit: every frame outside the tracked set is
     *  CacheBlk{} (so, in particular, every valid frame is tracked). */
    void auditTracked() const;

    /** Set index of an address (for conflict analysis in tests). */
    std::uint64_t
    setIndex(Addr block_addr) const
    {
        return blockNumber(block_addr) % sets_;
    }

  private:
    // spburst-lint: state(host-only) -- construction-time geometry,
    // identical across the warming and detailed hierarchies
    std::uint64_t sets_;
    // spburst-lint: state(host-only) -- construction-time geometry
    std::uint32_t ways_;
    struct FreeDeleter
    {
        void operator()(CacheBlk *p) const { std::free(p); }
    };
    // sets_ * ways_ frames, set-major. calloc'd: pages no run touches
    // are never faulted in, which keeps a 16 MiB L3 cheap to build.
    std::unique_ptr<CacheBlk[], FreeDeleter> frames_;
    std::uint64_t clock_ = 0; // LRU timestamp source
    // spburst-lint: state(host-only) -- derived from frames_: bit i is
    // set once frame i is filled and cleared only by a restore, so it
    // covers every valid frame and every frame that differs from
    // CacheBlk{}
    std::vector<std::uint64_t> tracked_;

    CacheBlk *setBase(Addr block_addr);

    void
    track(const CacheBlk &frame)
    {
        const std::size_t i =
            static_cast<std::size_t>(&frame - frames_.get());
        tracked_[i >> 6] |= 1ULL << (i & 63);
    }

    /** Reset every tracked frame to CacheBlk{} and clear the bitmap. */
    void clearTracked();

    /** Call @p fn(index) for every tracked frame, index-ascending. */
    template <typename Fn>
    void
    forEachTracked(Fn &&fn) const
    {
        for (std::size_t w = 0; w < tracked_.size(); ++w) {
            for (std::uint64_t bits = tracked_[w]; bits != 0;
                 bits &= bits - 1)
                fn((w << 6) +
                   static_cast<std::size_t>(std::countr_zero(bits)));
        }
    }
};

} // namespace spburst
