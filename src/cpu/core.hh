/**
 * @file
 * Cycle-level out-of-order core.
 *
 * The core is trace-driven: a TraceSource supplies the committed
 * (correct-path) micro-op stream; the core adds the micro-architectural
 * behaviour around it — a front-end pipe with fetch-to-dispatch depth,
 * rename against finite physical register files, dispatch into
 * ROB/IQ/LQ/SB with per-resource stall attribution, dependence-driven
 * issue with functional-unit and memory-port constraints, loads through
 * the L1D (with store-to-load forwarding from the SB), branches that
 * resolve when their operands do, and wrong-path execution between a
 * mispredicted branch and its resolution (wrong-path loads really
 * access the L1D; wrong-path stores really occupy SB entries — the
 * at-execute policy really prefetches for them).
 *
 * Given T traces the core runs T simultaneous hardware threads (the
 * paper's Sec. I motivation: SMT processors statically partition the
 * SB, so each of T threads sees SB/T entries). The threads share
 * fetch/dispatch/issue/commit width, the issue queue, the functional
 * units, the memory ports and the L1D, taking turns from a rotating
 * priority pointer; the ROB, load queue, physical registers, fetch
 * buffer and store buffer are statically partitioned per thread, as in
 * Intel's implementation (optimization manual Sec. 2.6.9). Each thread
 * has its own DTLB and SPB engine — the 67-bit detector is cheap enough
 * to replicate per thread.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "check/event_log.hh"
#include "check/invariants.hh"
#include "common/clock.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/spb.hh"
#include "cpu/params.hh"
#include "cpu/pipeline_structs.hh"
#include "cpu/store_buffer.hh"
#include "cpu/tlb.hh"
#include "trace/source.hh"

namespace spburst
{

class CacheController;

/** Resources whose exhaustion can stall dispatch. */
enum class StallResource : std::uint8_t
{
    None = 0,
    Rob,
    Iq,
    Lq,
    Sb,   //!< the paper's target: store-buffer-induced stalls
    Regs,
};

/** Number of StallResource values. */
inline constexpr int kNumStallResources = 6;

/** Fetch-budget sentinel: no cap on correct-path fetch. */
inline constexpr std::uint64_t kUnlimitedFetchBudget =
    std::numeric_limits<std::uint64_t>::max();

/** Human-readable resource name. */
const char *stallResourceName(StallResource r);

/** Most hardware threads one core runs. */
inline constexpr int kMaxThreads = 8;

/** Per-core statistics. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t committedUops = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t committedBranches = 0;
    std::uint64_t issuedUops = 0;
    std::uint64_t fetchedUops = 0;
    std::uint64_t mispredicts = 0;

    // Wrong-path activity (Figs. 7, 13: the misspeculation savings).
    std::uint64_t wrongPathFetched = 0;
    std::uint64_t wrongPathLoadsIssued = 0;
    std::uint64_t squashedUops = 0;

    /** Cycles dispatch made no progress, by blocking resource. */
    std::uint64_t dispatchStalls[kNumStallResources] = {};

    /** SB-stall cycles attributed to the SB head's code region (Fig 3). */
    std::uint64_t sbStallsByRegion[kNumRegions] = {};

    /** Cycles with no issue at all. */
    std::uint64_t noIssueCycles = 0;

    /** Cycles with no issue while >=1 L1D load miss outstanding — the
     *  Top-Down "execution stalls with L1D misses pending" (Fig 14). */
    std::uint64_t execStallL1dPending = 0;

    /** Loads sent to the L1D (wrong path included). */
    std::uint64_t loadsToL1 = 0;

    /** Total dispatch-stall cycles (any resource). */
    std::uint64_t totalDispatchStalls() const;

    /** SB share of dispatch stalls. */
    std::uint64_t sbStalls() const
    {
        return dispatchStalls[static_cast<int>(StallResource::Sb)];
    }

    StatSet toStatSet() const;
};

/** Per-core configuration: structure + store-prefetch strategy. */
struct CoreConfig
{
    CoreParams params;
    StorePrefetchPolicy policy = StorePrefetchPolicy::AtCommit;
    bool useSpb = false; //!< SPB on top of the at-commit baseline
    SpbParams spb;
    /** Ideal SB (paper's upper bound): a 1024-entry SB whose blocks are
     *  all prefetched in parallel; forces the at-commit policy. */
    bool idealSb = false;
    /** Non-speculative store coalescing in the SB (related work [24]). */
    bool coalescingSb = false;
};

/** One out-of-order core running one or more hardware threads. */
class Core
{
  public:
    /**
     * @param config  Core configuration; queue sizes are the core's
     *                totals (Table I), partitioned among the threads.
     * @param core_id Core index within the system.
     * @param clock   Shared clock.
     * @param l1d     This core's L1D controller (shared by its threads).
     * @param traces  One correct-path uop stream per hardware thread
     *                (not owned); their count is the thread count.
     */
    Core(const CoreConfig &config, int core_id, SimClock *clock,
         CacheController *l1d, std::vector<TraceSource *> traces);

    /** Simulate one cycle (memory events for the cycle already ran). */
    // spburst-lint: hot
    void tick();

    /**
     * True when tick() provably could not change architectural or
     * micro-architectural state this cycle — every stage is blocked on
     * an in-flight memory event, so a tick would only accrue per-cycle
     * stall/occupancy statistics. The system uses this to fast-forward
     * straight to the next scheduled event. Always false with more
     * than one thread: nothing fast-forwards an SMT core.
     */
    bool quiescent() const;

    /**
     * Account @p n skipped quiescent cycles (the ticks that would have
     * run at cycles now+1 .. now+n). Replicates exactly the statistics
     * a quiescent tick() accrues: cycles, no-issue and exec-stall
     * cycles, dispatch-stall attribution, and SB occupancy. Only valid
     * when quiescent() holds and no event fires in the skipped range.
     */
    void skipQuiescentCycles(Cycle n);

    /**
     * Cap correct-path fetch at @p uops more trace uops (sampling:
     * each detailed window fetches exactly warmup + window uops, then
     * the core drains). Wrong-path fetch is unaffected — a mispredicted
     * branch at the end of a window still resolves normally. The
     * default budget is unlimited, which leaves every non-sampled code
     * path untouched. The budget is shared by all threads.
     */
    void setFetchBudget(std::uint64_t uops) { fetchBudget_ = uops; }

    /** Remaining correct-path fetch budget. */
    std::uint64_t fetchBudget() const { return fetchBudget_; }

    /** True when the core holds no in-flight work at all: front-end
     *  pipes, ROBs and SBs empty, nothing pending in the memory system.
     *  With an exhausted fetch budget this is the end-of-window state
     *  the sampling loop waits for. */
    bool drained() const;

    /** Transplant functionally-warmed architectural state into thread
     *  0 (sampling): TLB entries, and — when SPB is enabled — detector
     *  registers. Statistics are untouched. */
    void restoreWarmState(const TlbSnapshot &tlb,
                          const SpbDetectorState *detector);

    /**
     * Attach a litmus event log: store drains and load completions of
     * every hardware thread are recorded as globally ordered MemEvents
     * (used by tests/litmus/; null in normal runs).
     */
    void setEventLog(check::EventLog *log);

    /** Hardware thread count (the number of traces). */
    int threads() const { return static_cast<int>(threads_.size()); }

    std::uint64_t
    committed(int tid = 0) const
    {
        return threads_[tid].stats.committedUops;
    }

    /** Smallest committed count over threads (run-completion check). */
    std::uint64_t minCommitted() const;

    const CoreStats &stats(int tid = 0) const
    {
        return threads_[tid].stats;
    }
    const StoreBuffer &storeBuffer(int tid = 0) const
    {
        return threads_[tid].sb;
    }
    const Tlb &dtlb(int tid = 0) const { return threads_[tid].dtlb; }
    const SpbEngine *spbEngine(int tid = 0) const
    {
        return threads_[tid].spb.get();
    }
    const CoreConfig &config() const { return config_; }

    /** Effective per-thread SB capacity (after partitioning and the
     *  ideal-SB override). */
    unsigned effectiveSbSize() const { return threads_[0].sb.capacity(); }

  private:
    /** One hardware thread's private pipeline state. */
    struct Thread
    {
        Thread(int id, TraceSource *src, std::uint64_t rng_seed,
               unsigned sb_entries, CacheController *l1d, int core_id,
               const TlbParams &tlb_params)
            : tid(id), trace(src), rng(rng_seed),
              sb(sb_entries, l1d, core_id), dtlb(tlb_params)
        {
        }

        int tid; //!< index within the core
        TraceSource *trace;
        Rng rng; //!< wrong-path synthesis

        FetchRing fetchPipe;
        RobRing rob;
        StoreBuffer sb;
        Tlb dtlb;
        std::unique_ptr<SpbEngine> spb;

        SeqNum nextSeq = 1;
        std::uint64_t nextToken = 1;
        unsigned iqCount = 0; //!< this thread's share of the shared IQ
        unsigned lqCount = 0;

        // Event-driven wakeup/select, indexed by physical ROB slot
        // (RobRing::slot) and sized once at construction.
        /** Bit per slot: in the IQ with every producer completed. */
        std::vector<std::uint64_t> readyBits;
        /** Per slot: sources whose producer has not completed yet. */
        std::vector<std::uint8_t> pendingSrc;
        /** Per producer slot: head of its list of waiting consumer
         *  edges (edge `slot * 2 + k` is source k of that slot), or
         *  kNoEdge. */
        std::vector<std::uint32_t> waitHead;
        /** Per edge: the next edge on the same producer's list. */
        std::vector<std::uint32_t> waitNext;
        /** Seqs of the issued uops that complete by timer (readyCycle)
         *  rather than by a memory callback, in no particular order.
         *  The core is never quiescent while it is non-empty. */
        std::vector<SeqNum> timers;
        /** Lower bound on the earliest pending timer completion; gates
         *  the timer walk (squash can leave it stale-low, which only
         *  costs one walk that recomputes it). */
        Cycle nextTimerCycle = kNeverCycle;
        /** ROB entries with a load in flight to the L1D (wrong path
         *  included); gates the exec-stall statistic scan. */
        unsigned memPendingCount = 0;
        unsigned intRegsFree = 0;
        unsigned fpRegsFree = 0;
        bool wrongPathMode = false;
        Addr lastDataAddr = 0x10000000;

        check::InOrderChecker commitOrder; //!< ROB commits in order

        CoreStats stats;
    };

    /** Functional units and memory ports taken in one issue cycle. */
    struct IssueSlots
    {
        unsigned issued = 0;
        unsigned intUsed = 0;
        unsigned fpUsed = 0;
        unsigned memUsed = 0;
    };

    // Pipeline stages. The shared ones (commit, issue, dispatch, fetch)
    // give the threads turns from the rotating priority pointer, one uop
    // per turn, and stop at their width or once every thread in a row
    // had nothing to do: a thread with nothing to do in a stage stays
    // so for the rest of the cycle, since the stage only consumes its
    // resources.
    void completeAndRecover(Thread &t);
    void commitStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /** The thread whose turn follows thread @p tid's, of @p nt. */
    static int
    nextTurn(int tid, int nt)
    {
        return tid + 1 == nt ? 0 : tid + 1;
    }

    /** No consumer edge (end of a wait list). */
    static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

    /** True when producer @p seq has left the ROB or completed.
     *  kInvalidSeqNum (no dependence) maps to "done" via the same
     *  unsigned wrap that rejects committed/squashed seqs. The wakeup
     *  state replaces this predicate on the hot path; auditWakeup
     *  keeps it as the oracle. */
    static bool
    producerDone(const Thread &t, SeqNum seq)
    {
        const std::size_t i = t.rob.indexOf(seq);
        return i == RobRing::npos ||
               (t.rob.flags(i) & robflags::kCompleted) != 0;
    }

    static bool
    sourcesReady(const Thread &t, std::size_t i)
    {
        return producerDone(t, t.rob.src1(i)) &&
               producerDone(t, t.rob.src2(i));
    }

    static bool
    readyBit(const Thread &t, std::size_t slot)
    {
        return (t.readyBits[slot >> 6] >> (slot & 63) & 1) != 0;
    }
    static void
    setReady(Thread &t, std::size_t slot)
    {
        t.readyBits[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    static void
    clearReady(Thread &t, std::size_t slot)
    {
        t.readyBits[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }

    /** Dispatch of ROB index @p i: put each source whose producer is
     *  still in flight on that producer's wait list, and mark the
     *  entry ready when there is none. */
    static void linkSources(Thread &t, std::size_t i);
    /** ROB index @p i completed: count it off for every consumer on
     *  its wait list, mark those left with no pending source ready,
     *  and empty the list. */
    static void wake(Thread &t, std::size_t i);
    /** Squash of the youngest ROB index @p i: take its edges off its
     *  producers' wait lists (they sit at the heads, since every
     *  younger consumer is already gone) and clear its ready bit. */
    static void unlinkSources(Thread &t, std::size_t i);
    /** --check=full oracle: the wakeup state equals what the ROB flags
     *  and sources say. */
    static void auditWakeup(const Thread &t);

    /** Issue @p t's oldest ready uop at ROB index @p from or later that
     *  @p slots still has a unit for, and move @p from past it; false
     *  when there is none. */
    bool issueNext(Thread &t, std::size_t &from, IssueSlots &slots);
    void squashAfter(Thread &t, SeqNum branch_seq);
    void startLoad(Thread &t, std::size_t i);
    void issueLoadToL1(int tid, SeqNum seq, std::uint64_t token);
    void execStore(Thread &t, std::size_t i);
    void recordLoadObserved(const Thread &t, std::size_t i, Cycle cycle,
                            SeqNum forwardedFrom);
    MicroOp synthesizeWrongPath(Thread &t);
    StallResource dispatchBlocker(const Thread &t,
                                  const FetchedUop &f) const;

    CoreConfig config_;
    CoreParams p_; //!< shorthand for config_.params
    int coreId_;
    SimClock *clock_;
    CacheController *l1d_;

    /** Reserved up front and never grown: in-flight SB drain callbacks
     *  point into the threads. */
    std::vector<Thread> threads_;
    // Per-thread shares of the partitioned structures.
    unsigned robPerThread_;
    unsigned lqPerThread_;
    unsigned fetchBufPerThread_;

    unsigned iqInUse_ = 0; //!< shared IQ occupancy, all threads
    int rotate_ = 0;       //!< round-robin priority pointer
    /** Correct-path uops fetchStage may still pull from the traces;
     *  kUnlimitedFetchBudget means unlimited (non-sampled runs). */
    std::uint64_t fetchBudget_ = kUnlimitedFetchBudget;
    check::EventLog *eventLog_ = nullptr; //!< litmus-only event sink
};

} // namespace spburst
