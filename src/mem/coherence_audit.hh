/**
 * @file
 * Global SWMR auditor over directory / cache-controller state.
 *
 * The MESI directory over-approximates sharers (silent private
 * evictions leave stale bits), so the sound check direction is from the
 * caches toward the directory: any core that actually *holds* a block
 * must be consistent with what the directory believes. Audited
 * invariants:
 *
 *  - SWMR: at most one core's private hierarchy holds a block with
 *    ownership (E/M) at any instant.
 *  - A core holding ownership is the directory's recorded owner.
 *  - Any core holding a valid copy appears in the directory's sharer
 *    mask (stale extra bits are legal; missing bits are not).
 *  - The recorded owner, if any, appears in its own sharer mask.
 *  - At drain (end of run, event queue empty): no MSHR entry and no
 *    queued prefetch/burst work survives anywhere in the hierarchy.
 *
 * In --check=full mode the directory calls onTransaction() after every
 * coherence transaction: each call audits the transaction's block (a
 * cheap O(cores) probe) and, every kFullSweepPeriod transactions, runs
 * the full SWMR sweep over every tracked block.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace spburst
{

class CacheController;
class DirectoryController;

/** SWMR / MSHR-drain auditor for one memory hierarchy. */
class CoherenceAuditor
{
  public:
    /** Full SWMR sweep cadence, in coherence transactions. */
    static constexpr std::uint64_t kFullSweepPeriod = 4096;

    /**
     * @param dir    The hierarchy's directory (may be null: single-core
     *               systems have no directory; only the drain audit
     *               applies).
     * @param caches Every controller whose MSHRs / queues must be empty
     *               at drain (L1s, L2s, L3).
     */
    CoherenceAuditor(const DirectoryController *dir,
                     std::vector<const CacheController *> caches);

    /** Directory hook: audit after one resolved transaction. */
    void onTransaction(Addr block_addr);

    /** Audit one block's SWMR state against the directory. */
    void auditBlock(Addr block_addr) const;

    /** Audit every block the directory tracks. */
    void auditFull() const;

    /** End-of-run residue check (MSHRs, queues, tag-array tracking):
     *  call only once the event queue has drained. */
    void auditDrained() const;

  private:
    const DirectoryController *dir_;
    std::vector<const CacheController *> caches_;
    std::uint64_t transactions_ = 0;
};

} // namespace spburst
