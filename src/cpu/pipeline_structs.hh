/**
 * @file
 * Struct-of-arrays ring buffers for the pipeline hot structures.
 *
 * The core's remaining per-entry loops (producer lookup, the
 * exec-stall statistic, SB forwarding) probe the ROB and SB by
 * logical index. With `std::deque` each probe pays a chunk-map
 * indirection and drags a whole ~80-byte entry through the cache to
 * test one flag. The rings here split every entry across parallel
 * arrays so a probe touches only the fields it reads: one packed flag
 * byte per entry, cycle stamps and source seqs alongside, and the cold
 * payload (`MicroOp`, lifetime token) in side arrays that only
 * dispatch/commit touch.
 *
 * All rings are power-of-two sized and indexed logically: entry i (0
 * is the oldest) sits in physical slot `(head + i) & mask`. The ROB
 * ring also owns the seq-contiguity invariant the core relies on for
 * O(1) producer lookup: entry i holds sequence number `frontSeq() + i`
 * by construction (squash reuses the freed numbers, so contiguity
 * survives recovery). An entry keeps its physical slot for its whole
 * life, so the core's wakeup state (ready bitmap, consumer lists) is
 * indexed by `slot(i)` and sized by `capacity()`.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "trace/uop.hh"

namespace spburst
{

/** Packed per-entry ROB state; one byte tested per scan probe. */
namespace robflags
{
inline constexpr std::uint8_t kWrongPath = 0x01;
inline constexpr std::uint8_t kInIq = 0x02;
inline constexpr std::uint8_t kIssued = 0x04;
inline constexpr std::uint8_t kCompleted = 0x08;
inline constexpr std::uint8_t kMemPending = 0x10;
inline constexpr std::uint8_t kRecovered = 0x20;
} // namespace robflags

/** Smallest power of two >= @p n (and >= 1). */
constexpr std::size_t
ringCapacityFor(std::size_t n)
{
    std::size_t cap = 1;
    while (cap < n)
        cap <<= 1;
    return cap;
}

/**
 * Reorder buffer as a struct-of-arrays ring.
 *
 * Hot arrays: flags (IQ / issued / completed state), readyCycle
 * (completion timer), issuedAt (exec-stall attribution), src1/src2
 * (producer seqs). Cold arrays: the MicroOp payload and the lifetime
 * token that fends off stale memory callbacks after a squash.
 */
class RobRing
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    RobRing() = default;

    /** Size the ring for @p capacity entries and empty it. */
    void
    reset(std::size_t capacity)
    {
        const std::size_t cap = ringCapacityFor(capacity);
        flags_.assign(cap, 0);
        ready_.assign(cap, kNeverCycle);
        issuedAt_.assign(cap, 0);
        src1_.assign(cap, kInvalidSeqNum);
        src2_.assign(cap, kInvalidSeqNum);
        op_.assign(cap, MicroOp{});
        token_.assign(cap, 0);
        mask_ = cap - 1;
        head_ = 0;
        count_ = 0;
        frontSeq_ = 1;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    /** Physical slot count (a power of two, >= the requested size). */
    std::size_t capacity() const { return mask_ + 1; }
    /** Physical slot of logical entry @p i; stable while it lives. */
    std::size_t slot(std::size_t i) const { return (head_ + i) & mask_; }

    /** Seq of the oldest entry (meaningful only when non-empty). */
    SeqNum frontSeq() const { return frontSeq_; }
    /** Seq of the youngest entry (requires non-empty). */
    SeqNum backSeq() const { return frontSeq_ + count_ - 1; }
    /** Seq of logical entry @p i (contiguity invariant). */
    SeqNum seqAt(std::size_t i) const { return frontSeq_ + i; }

    /**
     * Logical index of @p seq, or npos when it is not buffered
     * (committed, squashed, never dispatched, or kInvalidSeqNum — the
     * unsigned wrap maps all of those past count_).
     */
    std::size_t
    indexOf(SeqNum seq) const
    {
        const std::size_t i = static_cast<std::size_t>(seq - frontSeq_);
        return i < count_ ? i : npos;
    }

    /**
     * Append a fresh entry for @p seq with default-initialised hot
     * state (flags 0, readyCycle never, sources invalid) and return
     * its logical index. @p seq must extend the contiguous range.
     */
    std::size_t
    pushBack(SeqNum seq, std::uint64_t token)
    {
        SPB_ASSERT(count_ <= mask_, "ROB ring overflow");
        if (count_ == 0)
            frontSeq_ = seq;
        else
            SPB_ASSERT(seq == frontSeq_ + count_,
                       "ROB lost seq contiguity");
        const std::size_t p = (head_ + count_) & mask_;
        flags_[p] = 0;
        ready_[p] = kNeverCycle;
        issuedAt_[p] = 0;
        src1_[p] = kInvalidSeqNum;
        src2_[p] = kInvalidSeqNum;
        token_[p] = token;
        return count_++;
    }

    void
    popFront()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
        ++frontSeq_;
    }

    void popBack() { --count_; }

    std::uint8_t &flags(std::size_t i) { return flags_[slot(i)]; }
    std::uint8_t flags(std::size_t i) const { return flags_[slot(i)]; }
    Cycle &readyCycle(std::size_t i) { return ready_[slot(i)]; }
    Cycle readyCycle(std::size_t i) const { return ready_[slot(i)]; }
    Cycle &issuedAt(std::size_t i) { return issuedAt_[slot(i)]; }
    Cycle issuedAt(std::size_t i) const { return issuedAt_[slot(i)]; }
    SeqNum &src1(std::size_t i) { return src1_[slot(i)]; }
    SeqNum src1(std::size_t i) const { return src1_[slot(i)]; }
    SeqNum &src2(std::size_t i) { return src2_[slot(i)]; }
    SeqNum src2(std::size_t i) const { return src2_[slot(i)]; }
    MicroOp &op(std::size_t i) { return op_[slot(i)]; }
    const MicroOp &op(std::size_t i) const { return op_[slot(i)]; }
    std::uint64_t token(std::size_t i) const { return token_[slot(i)]; }

  private:
    std::vector<std::uint8_t> flags_;
    std::vector<Cycle> ready_;
    std::vector<Cycle> issuedAt_;
    std::vector<SeqNum> src1_;
    std::vector<SeqNum> src2_;
    std::vector<MicroOp> op_;
    std::vector<std::uint64_t> token_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
    SeqNum frontSeq_ = 1;
};

/** One fetched uop waiting in the front-end pipe. */
struct FetchedUop
{
    MicroOp op;
    Cycle fetchCycle = 0;
    bool wrongPath = false;
};

/**
 * Front-end pipe as a plain ring of FetchedUop. The pipe is only ever
 * touched at its ends (fetch appends, dispatch pops the head, squash
 * clears), so parallel arrays buy nothing here — the win over deque is
 * the fixed power-of-two storage and the branch-free index math.
 */
class FetchRing
{
  public:
    FetchRing() = default;

    void
    reset(std::size_t capacity)
    {
        slots_.assign(ringCapacityFor(capacity), FetchedUop{});
        mask_ = slots_.size() - 1;
        head_ = 0;
        count_ = 0;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    void clear() { count_ = 0; }

    FetchedUop &front() { return slots_[head_]; }
    const FetchedUop &front() const { return slots_[head_]; }

    void
    pushBack(FetchedUop f)
    {
        SPB_ASSERT(count_ <= mask_, "fetch ring overflow");
        slots_[(head_ + count_) & mask_] = std::move(f);
        ++count_;
    }

    void
    popFront()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

  private:
    std::vector<FetchedUop> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
};

/** Packed per-entry store-buffer state. */
namespace sbflags
{
inline constexpr std::uint8_t kSenior = 0x01;
inline constexpr std::uint8_t kAddressKnown = 0x02;
inline constexpr std::uint8_t kWrongPath = 0x04;
} // namespace sbflags

/**
 * Store-buffer entries as a struct-of-arrays ring. The forwarding scan
 * (youngest-to-oldest, every load) reads only seq/flags/addr/size, so
 * those live in parallel arrays; region rides in its own byte array
 * (read at commit and for stall attribution only).
 *
 * Unlike the ROB, SB seqs are sparse (only stores), so lookup stays a
 * linear seq scan — over a dense array instead of deque chunks.
 */
class SbRing
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    SbRing() = default;

    void
    reset(std::size_t capacity)
    {
        const std::size_t cap = ringCapacityFor(capacity);
        seq_.assign(cap, kInvalidSeqNum);
        addr_.assign(cap, kInvalidAddr);
        size_.assign(cap, 0);
        flags_.assign(cap, 0);
        region_.assign(cap, static_cast<std::uint8_t>(Region::App));
        mask_ = cap - 1;
        head_ = 0;
        count_ = 0;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Append a fresh entry (flags 0, address unknown); returns its
     *  logical index. */
    std::size_t
    pushBack(SeqNum seq, Region region, bool wrongPath)
    {
        SPB_ASSERT(count_ <= mask_, "SB ring overflow");
        const std::size_t p = (head_ + count_) & mask_;
        seq_[p] = seq;
        addr_[p] = kInvalidAddr;
        size_[p] = 0;
        flags_[p] = wrongPath ? sbflags::kWrongPath : std::uint8_t{0};
        region_[p] = static_cast<std::uint8_t>(region);
        return count_++;
    }

    void
    popFront()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    void popBack() { --count_; }

    /** Remove logical entry @p i, sliding everything younger down one
     *  slot (rare: only the coalescing merge uses it). */
    void
    eraseAt(std::size_t i)
    {
        for (std::size_t j = i + 1; j < count_; ++j) {
            const std::size_t d = phys(j - 1);
            const std::size_t s = phys(j);
            seq_[d] = seq_[s];
            addr_[d] = addr_[s];
            size_[d] = size_[s];
            flags_[d] = flags_[s];
            region_[d] = region_[s];
        }
        --count_;
    }

    /** Logical index of @p seq, or npos. */
    std::size_t
    indexOf(SeqNum seq) const
    {
        for (std::size_t i = 0; i < count_; ++i)
            if (seq_[phys(i)] == seq)
                return i;
        return npos;
    }

    SeqNum seq(std::size_t i) const { return seq_[phys(i)]; }
    Addr &addr(std::size_t i) { return addr_[phys(i)]; }
    Addr addr(std::size_t i) const { return addr_[phys(i)]; }
    unsigned &sizeBytes(std::size_t i) { return size_[phys(i)]; }
    unsigned sizeBytes(std::size_t i) const { return size_[phys(i)]; }
    std::uint8_t &flags(std::size_t i) { return flags_[phys(i)]; }
    std::uint8_t flags(std::size_t i) const { return flags_[phys(i)]; }
    Region region(std::size_t i) const
    {
        return static_cast<Region>(region_[phys(i)]);
    }

  private:
    std::size_t phys(std::size_t i) const { return (head_ + i) & mask_; }

    std::vector<SeqNum> seq_;
    std::vector<Addr> addr_;
    std::vector<unsigned> size_;
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint8_t> region_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t mask_ = 0;
};

} // namespace spburst
