#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "check/check.hh"
#include "common/logging.hh"
#include "mem/cache_controller.hh"

namespace spburst
{

namespace
{

/** L1D hit latency used to decide "miss pending" (Top-Down metric). */
constexpr Cycle kL1HitLatency = 4;

} // namespace

const char *
stallResourceName(StallResource r)
{
    switch (r) {
      case StallResource::None: return "none";
      case StallResource::Rob: return "rob";
      case StallResource::Iq: return "iq";
      case StallResource::Lq: return "lq";
      case StallResource::Sb: return "sb";
      case StallResource::Regs: return "regs";
    }
    return "?";
}

std::uint64_t
CoreStats::totalDispatchStalls() const
{
    std::uint64_t total = 0;
    for (int r = 0; r < kNumStallResources; ++r)
        total += dispatchStalls[r];
    return total;
}

StatSet
CoreStats::toStatSet() const
{
    StatSet s;
    s.set("cycles", static_cast<double>(cycles));
    s.set("committed_uops", static_cast<double>(committedUops));
    s.set("committed_loads", static_cast<double>(committedLoads));
    s.set("committed_stores", static_cast<double>(committedStores));
    s.set("committed_branches", static_cast<double>(committedBranches));
    s.set("issued_uops", static_cast<double>(issuedUops));
    s.set("fetched_uops", static_cast<double>(fetchedUops));
    s.set("mispredicts", static_cast<double>(mispredicts));
    s.set("wrong_path_fetched", static_cast<double>(wrongPathFetched));
    s.set("wrong_path_loads", static_cast<double>(wrongPathLoadsIssued));
    s.set("squashed_uops", static_cast<double>(squashedUops));
    for (int r = 1; r < kNumStallResources; ++r) {
        s.set(std::string("stall_") +
                  stallResourceName(static_cast<StallResource>(r)),
              static_cast<double>(dispatchStalls[r]));
    }
    for (int r = 0; r < kNumRegions; ++r) {
        s.set(std::string("sb_stall_region_") +
                  regionName(static_cast<Region>(r)),
              static_cast<double>(sbStallsByRegion[r]));
    }
    s.set("no_issue_cycles", static_cast<double>(noIssueCycles));
    s.set("exec_stall_l1d_pending",
          static_cast<double>(execStallL1dPending));
    s.set("loads_to_l1", static_cast<double>(loadsToL1));
    s.set("ipc", cycles == 0 ? 0.0
                             : static_cast<double>(committedUops) /
                                   static_cast<double>(cycles));
    return s;
}

Core::Core(const CoreConfig &config, int core_id, SimClock *clock,
           CacheController *l1d, std::vector<TraceSource *> traces)
    : config_(config),
      p_(config.params),
      coreId_(core_id),
      clock_(clock),
      l1d_(l1d)
{
    SPB_ASSERT(clock != nullptr, "core needs a clock");
    SPB_ASSERT(!traces.empty() && traces.size() <= kMaxThreads,
               "core needs 1-%d traces, got %zu", kMaxThreads,
               traces.size());

    // Static partitioning (Intel optimization manual Sec. 2.6.9): the
    // SB, ROB, LQ, register files and fetch buffer are divided among
    // the threads; the IQ is shared. The floors only matter for
    // structures smaller than them.
    const unsigned nt = static_cast<unsigned>(traces.size());
    const unsigned sb_entries =
        config_.idealSb ? 1024 : std::max(1u, p_.sqSize / nt);
    robPerThread_ = std::max(4u, p_.robSize / nt);
    lqPerThread_ = std::max(2u, p_.lqSize / nt);
    fetchBufPerThread_ = std::max(4u, p_.fetchBufferUops / nt);

    const StorePrefetchPolicy policy =
        config_.idealSb ? StorePrefetchPolicy::AtCommit : config_.policy;
    threads_.reserve(nt);
    for (unsigned tid = 0; tid < nt; ++tid) {
        SPB_ASSERT(traces[tid] != nullptr, "thread %u has no trace", tid);
        // Wrong-path synthesis seed. Several threads keep the seeds the
        // SMT results in tests/data/smt_golden.txt were recorded with,
        // so those results stay byte-identical.
        const std::uint64_t seed =
            nt == 1 ? 0xc0ffee ^ (static_cast<std::uint64_t>(core_id) << 32)
                    : 0x5b5bull ^ (static_cast<std::uint64_t>(tid) << 32);
        Thread &t = threads_.emplace_back(static_cast<int>(tid),
                                          traces[tid], seed, sb_entries,
                                          l1d_, coreId_, p_.tlb);
        t.rob.reset(robPerThread_);
        const std::size_t slots = t.rob.capacity();
        t.readyBits.assign((slots + 63) / 64, 0);
        t.pendingSrc.assign(slots, 0);
        t.waitHead.assign(slots, kNoEdge);
        t.waitNext.assign(2 * slots, kNoEdge);
        t.timers.reserve(slots);
        t.fetchPipe.reset(fetchBufPerThread_);
        t.intRegsFree = std::max(8u, p_.intRegs / nt);
        t.fpRegsFree = std::max(8u, p_.fpRegs / nt);
        t.sb.setPrefetchAtCommit(policy == StorePrefetchPolicy::AtCommit);
        t.sb.setCoalescing(config_.coalescingSb);
        if (config_.useSpb) {
            t.spb = std::make_unique<SpbEngine>(config_.spb, l1d_, coreId_);
            t.sb.setSpbEngine(t.spb.get());
        }
    }
}

void
Core::setEventLog(check::EventLog *log)
{
    eventLog_ = log;
    for (Thread &t : threads_)
        t.sb.setEventLog(log, t.tid, clock_);
}

std::uint64_t
Core::minCommitted() const
{
    std::uint64_t least = ~0ull;
    for (const Thread &t : threads_)
        least = std::min(least, t.stats.committedUops);
    return least;
}

// spburst-lint: ff(tick)
void
Core::tick()
{
    // Stage gates: each stage runs only when some thread provably has
    // work. completeAndRecover only retires the thread's timer list
    // (memory completions wake their consumers from the L1D callback),
    // and the nextTimerCycle lower bound skips it while every pending
    // timer is still in the future (branches only complete by timer,
    // so no recovery can be missed either). Commit and issue leave the
    // fetch pipes alone, so the dispatch gate holds past them.
    bool commit = false;
    bool dispatch = false;
    for (Thread &t : threads_) {
        ++t.stats.cycles;
        if (!t.timers.empty() && clock_->now >= t.nextTimerCycle)
            completeAndRecover(t);
        commit |= !t.rob.empty() &&
                  (t.rob.flags(0) & robflags::kCompleted) != 0;
        dispatch |= !t.fetchPipe.empty();
    }
    if (commit)
        commitStage();
    issueStage();
    if (dispatch)
        dispatchStage();
    fetchStage();
    for (Thread &t : threads_)
        t.sb.tick(clock_->now);
    rotate_ = nextTurn(rotate_, threads());
    if (check::full())
        for (const Thread &t : threads_)
            auditWakeup(t);
}

bool
Core::quiescent() const
{
    if (threads_.size() != 1)
        return false;
    const Thread &t = threads_[0];
    // Something completes by timer.
    if (!t.timers.empty())
        return false;
    // Fetch would make progress (an exhausted fetch budget blocks
    // correct-path fetch, but never wrong-path synthesis).
    if (t.fetchPipe.size() < fetchBufPerThread_ &&
        (t.wrongPathMode || fetchBudget_ != 0))
        return false;
    // Commit would make progress.
    if (!t.rob.empty() && (t.rob.flags(0) & robflags::kCompleted) != 0)
        return false;
    // Dispatch would make progress — either the head is still
    // traversing the front end (it matures at a known future cycle) or
    // no resource blocks it. With the fetch budget exhausted the pipe
    // can be empty; dispatch then has no work at all.
    if (!t.fetchPipe.empty()) {
        const FetchedUop &f = t.fetchPipe.front();
        if (clock_->now < f.fetchCycle + p_.frontEndDepth)
            return false;
        if (dispatchBlocker(t, f) == StallResource::None)
            return false;
    }
    // The SB head would start a drain.
    if (!t.sb.quiescent())
        return false;
    // Issue would make progress.
    for (const std::uint64_t word : t.readyBits)
        if (word != 0)
            return false;
    return true;
}

// spburst-lint: ff(skip)
void
Core::skipQuiescentCycles(Cycle n)
{
    SPB_ASSERT(threads_.size() == 1, "skipQuiescentCycles on an SMT core");
    Thread &t = threads_[0];
    const Cycle now = clock_->now; // skipped ticks: now+1 .. now+n
    t.stats.cycles += n;
    if (!t.rob.empty()) {
        t.stats.noIssueCycles += n;
        // The exec-stall condition (an outstanding correct-path L1D
        // load older than the hit latency) is time-dependent: it can
        // become true mid-skip, at minIssuedAt + hitLatency + 1.
        if (t.memPendingCount != 0) {
            Cycle min_issued = kNeverCycle;
            const std::size_t sz = t.rob.size();
            for (std::size_t i = 0; i < sz; ++i) {
                constexpr std::uint8_t want = robflags::kMemPending;
                constexpr std::uint8_t care =
                    robflags::kMemPending | robflags::kWrongPath;
                if ((t.rob.flags(i) & care) == want &&
                    t.rob.issuedAt(i) < min_issued) {
                    min_issued = t.rob.issuedAt(i);
                }
            }
            if (min_issued != kNeverCycle) {
                const Cycle t0 = min_issued + kL1HitLatency + 1;
                const Cycle last = now + n;
                if (last >= t0) {
                    const Cycle from = std::max(now + 1, t0);
                    t.stats.execStallL1dPending += last - from + 1;
                }
            }
        }
    }
    // Quiescence guarantees a mature, resource-blocked dispatch head —
    // unless the fetch budget ran out and the pipe is empty (sampling
    // drain), in which case a tick would accrue no dispatch stall.
    if (!t.fetchPipe.empty()) {
        const StallResource blocker =
            dispatchBlocker(t, t.fetchPipe.front());
        SPB_ASSERT(blocker != StallResource::None,
                   "skipQuiescentCycles on a dispatchable core");
        t.stats.dispatchStalls[static_cast<int>(blocker)] += n;
        if (blocker == StallResource::Sb) {
            t.stats.sbStallsByRegion[static_cast<int>(
                t.sb.headRegion())] += n;
        }
    }
    t.sb.skipCycles(n);
}

bool
Core::drained() const
{
    for (const Thread &t : threads_) {
        if (!t.fetchPipe.empty() || !t.rob.empty() || t.sb.size() != 0 ||
            !t.timers.empty() || t.memPendingCount != 0 ||
            t.wrongPathMode)
            return false;
    }
    return true;
}

void
Core::restoreWarmState(const TlbSnapshot &tlb,
                       const SpbDetectorState *detector)
{
    SPB_ASSERT(drained(), "warm-state load into a busy core");
    Thread &t = threads_[0];
    t.dtlb.restoreEntries(tlb);
    if (t.spb && detector != nullptr)
        t.spb->restoreDetectorState(*detector);
}

void
Core::completeAndRecover(Thread &t)
{
    const Cycle now = clock_->now;
    Cycle next = kNeverCycle;
    std::size_t recover = RobRing::npos;
    // Retire the due timers in place, remember the earliest pending
    // one, and pick the oldest correct-path mispredicted branch among
    // those completing now. That is the oldest resolved, unrecovered
    // mispredict in the whole ROB: branches complete only here, and
    // the one picked recovers before the tick ends.
    std::size_t kept = 0;
    for (std::size_t k = 0; k < t.timers.size(); ++k) {
        const SeqNum seq = t.timers[k];
        const std::size_t i = t.rob.indexOf(seq);
        const Cycle ready = t.rob.readyCycle(i);
        if (ready > now) {
            next = std::min(next, ready);
            t.timers[kept++] = seq;
            continue;
        }
        t.rob.flags(i) |= robflags::kCompleted;
        wake(t, i);
        const MicroOp &op = t.rob.op(i);
        if (op.cls == OpClass::Branch && op.mispredicted &&
            !(t.rob.flags(i) & robflags::kWrongPath) && i < recover)
            recover = i;
    }
    t.timers.resize(kept);
    t.nextTimerCycle = next;
    // Mispredict recovery: the oldest resolved, unrecovered branch
    // squashes everything younger and redirects the front end.
    if (recover != RobRing::npos) {
        t.rob.flags(recover) |= robflags::kRecovered;
        // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle completes no branch, so no mispredict can accrue while skipping
        ++t.stats.mispredicts;
        squashAfter(t, t.rob.seqAt(recover));
    }
}

void
Core::linkSources(Thread &t, std::size_t i)
{
    const std::size_t s = t.rob.slot(i);
    const SeqNum src[2] = {t.rob.src1(i), t.rob.src2(i)};
    std::uint8_t pending = 0;
    for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t j = t.rob.indexOf(src[k]);
        if (j == RobRing::npos ||
            (t.rob.flags(j) & robflags::kCompleted) != 0)
            continue;
        const std::size_t p = t.rob.slot(j);
        const auto edge = static_cast<std::uint32_t>(s * 2 + k);
        t.waitNext[edge] = t.waitHead[p];
        t.waitHead[p] = edge;
        ++pending;
    }
    t.pendingSrc[s] = pending;
    if (pending == 0)
        setReady(t, s);
}

void
Core::wake(Thread &t, std::size_t i)
{
    const std::size_t p = t.rob.slot(i);
    for (std::uint32_t e = t.waitHead[p]; e != kNoEdge; e = t.waitNext[e]) {
        const std::size_t consumer = e >> 1;
        if (--t.pendingSrc[consumer] == 0)
            setReady(t, consumer);
    }
    t.waitHead[p] = kNoEdge;
}

void
Core::unlinkSources(Thread &t, std::size_t i)
{
    const std::size_t s = t.rob.slot(i);
    clearReady(t, s);
    if (t.pendingSrc[s] == 0)
        return;
    for (const SeqNum src : {t.rob.src1(i), t.rob.src2(i)}) {
        const std::size_t j = t.rob.indexOf(src);
        if (j == RobRing::npos)
            continue;
        std::uint32_t &head = t.waitHead[t.rob.slot(j)];
        while (head != kNoEdge && (head >> 1) == s)
            head = t.waitNext[head];
    }
}

void
Core::auditWakeup(const Thread &t)
{
    constexpr std::uint8_t timerCare =
        robflags::kIssued | robflags::kCompleted | robflags::kMemPending;
    const std::size_t n = t.rob.size();
    const std::size_t slots = t.rob.capacity();
    std::size_t ready = 0;
    std::size_t timed = 0;
    std::size_t waiting = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t f = t.rob.flags(i);
        [[maybe_unused]] const bool want =
            (f & robflags::kInIq) != 0 && sourcesReady(t, i);
        SPBURST_CHECK_SLOW(Pipeline, readyBit(t, t.rob.slot(i)) == want,
                           "thread %d seq %llu: ready bit %d, but in-IQ "
                           "with sources ready is %d",
                           t.tid,
                           static_cast<unsigned long long>(t.rob.seqAt(i)),
                           readyBit(t, t.rob.slot(i)) ? 1 : 0,
                           want ? 1 : 0);
        ready += want ? 1 : 0;
        timed += (f & timerCare) == robflags::kIssued ? 1 : 0;
        waiting += t.pendingSrc[t.rob.slot(i)];
    }
    // No ready bit outside the live entries.
    std::size_t bits = 0;
    for (const std::uint64_t word : t.readyBits)
        bits += static_cast<std::size_t>(std::popcount(word));
    SPBURST_CHECK_SLOW(Pipeline, bits == ready,
                       "thread %d: %zu ready bits for %zu ready entries",
                       t.tid, bits, ready);
    // The timer list holds each timer-completing entry exactly once.
    SPBURST_CHECK_SLOW(Pipeline, t.timers.size() == timed,
                       "thread %d: %zu timers for %zu timer-completing "
                       "entries",
                       t.tid, t.timers.size(), timed);
    std::vector<std::uint8_t> listed(slots, 0);
    for (const SeqNum seq : t.timers) {
        const std::size_t i = t.rob.indexOf(seq);
        const bool ok = i != RobRing::npos &&
                        (t.rob.flags(i) & timerCare) == robflags::kIssued &&
                        listed[t.rob.slot(i)] == 0;
        SPBURST_CHECK_SLOW(Pipeline, ok,
                           "thread %d: timer list entry %llu is not a "
                           "distinct timer-completing entry",
                           t.tid, static_cast<unsigned long long>(seq));
        if (ok)
            listed[t.rob.slot(i)] = 1;
    }
    // Every pending source is exactly one edge on a wait list (the
    // walk is capped so a corrupted list cannot loop forever).
    std::size_t edges = 0;
    for (std::size_t p = 0; p < slots; ++p)
        for (std::uint32_t e = t.waitHead[p];
             e != kNoEdge && edges <= 2 * slots; e = t.waitNext[e])
            ++edges;
    SPBURST_CHECK_SLOW(Pipeline, edges == waiting,
                       "thread %d: %zu wait-list edges for %zu pending "
                       "sources",
                       t.tid, edges, waiting);
}

void
Core::squashAfter(Thread &t, SeqNum branch_seq)
{
    while (!t.rob.empty() && t.rob.backSeq() > branch_seq) {
        const std::size_t i = t.rob.size() - 1;
        const std::uint8_t f = t.rob.flags(i);
        if (f & robflags::kInIq) {
            --t.iqCount;
            --iqInUse_;
            unlinkSources(t, i);
        }
        if (f & robflags::kMemPending)
            --t.memPendingCount;
        const MicroOp &op = t.rob.op(i);
        if (op.cls == OpClass::Load)
            --t.lqCount;
        if (op.hasDest) {
            if (isFloatOp(op.cls))
                ++t.fpRegsFree;
            else
                ++t.intRegsFree;
        }
        // spburst-lint: ff-exempt -- event-count stat: squashes only follow branch completions, which a quiescent cycle has none of
        ++t.stats.squashedUops;
        t.rob.popBack();
    }
    std::erase_if(t.timers,
                  [branch_seq](SeqNum seq) { return seq > branch_seq; });
    t.sb.squashFrom(branch_seq + 1);
    t.fetchPipe.clear();
    t.wrongPathMode = false;
    // Reuse the squashed uops' sequence numbers: the ROB's seq range
    // must stay contiguous for O(1) lookup. Stale memory callbacks are
    // fended off by the per-entry token.
    t.nextSeq = branch_seq + 1;
}

void
Core::commitStage()
{
    const int nt = threads();
    unsigned budget = p_.commitWidth;
    for (int tid = rotate_, idle = 0; budget > 0 && idle < nt;
         tid = nextTurn(tid, nt)) {
        Thread &t = threads_[tid];
        if (t.rob.empty() || !(t.rob.flags(0) & robflags::kCompleted)) {
            ++idle;
            continue;
        }
        idle = 0;
        const SeqNum seq = t.rob.frontSeq();
        SPB_ASSERT(!(t.rob.flags(0) & robflags::kWrongPath),
                   "wrong-path uop reached commit");
        SPBURST_CHECK(Pipeline, t.commitOrder.observe(seq),
                      "ROB committed %llu after %llu (out of order)",
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(
                          t.commitOrder.last()));
        const MicroOp &op = t.rob.op(0);
        switch (op.cls) {
          case OpClass::Store:
            t.sb.markSenior(seq);
            // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle commits nothing
            ++t.stats.committedStores;
            break;
          case OpClass::Load:
            --t.lqCount;
            // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle commits nothing
            ++t.stats.committedLoads;
            break;
          case OpClass::Branch:
            // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle commits nothing
            ++t.stats.committedBranches;
            break;
          default:
            break;
        }
        if (op.hasDest) {
            if (isFloatOp(op.cls))
                ++t.fpRegsFree;
            else
                ++t.intRegsFree;
        }
        // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle commits nothing
        ++t.stats.committedUops;
        t.rob.popFront();
        --budget;
    }
}

void
Core::startLoad(Thread &t, std::size_t i)
{
    const Cycle now = clock_->now;
    const MicroOp &op = t.rob.op(i);
    const SeqNum seq = t.rob.seqAt(i);
    // Address generation includes translation: a DTLB miss delays the
    // access by the page-walk latency.
    const Cycle walk = t.dtlb.access(op.addr);
    const SeqNum fwd = t.sb.forwards(seq, op.addr, op.size);
    if (fwd != kInvalidSeqNum) {
        t.rob.readyCycle(i) = now + walk + kL1HitLatency; // fwd ~ L1 hit
        recordLoadObserved(t, i, t.rob.readyCycle(i), fwd);
        return;
    }
    if (!l1d_) {
        // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle issues no loads
        ++t.stats.loadsToL1;
        t.rob.readyCycle(i) = now + walk + kL1HitLatency; // detached mode
        recordLoadObserved(t, i, t.rob.readyCycle(i), kInvalidSeqNum);
        return;
    }
    t.rob.flags(i) |= robflags::kMemPending;
    ++t.memPendingCount;
    const int tid = t.tid;
    const std::uint64_t token = t.rob.token(i);
    if (walk == 0) {
        issueLoadToL1(tid, seq, token);
        return;
    }
    clock_->events.schedule(now + walk, [this, tid, seq, token] {
        issueLoadToL1(tid, seq, token);
    });
}

void
Core::issueLoadToL1(int tid, SeqNum seq, std::uint64_t token)
{
    Thread &t = threads_[tid];
    const std::size_t i = t.rob.indexOf(seq);
    if (i == RobRing::npos || t.rob.token(i) != token ||
        !(t.rob.flags(i) & robflags::kMemPending))
        return; // squashed while the page walk was in flight
    // spburst-lint: ff-exempt -- event-count stat: loads reach the L1D at issue or at a page-walk event, and a skipped quiescent range holds neither
    ++t.stats.loadsToL1;
    const bool wrong_path = (t.rob.flags(i) & robflags::kWrongPath) != 0;
    if (wrong_path)
        // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle issues no loads
        ++t.stats.wrongPathLoadsIssued;
    const MicroOp &op = t.rob.op(i);
    MemRequest req;
    req.cmd = MemCmd::ReadReq;
    req.blockAddr = blockAlign(op.addr);
    req.core = coreId_;
    req.region = op.region;
    req.wrongPath = wrong_path;
    l1d_->issueLoad(req, [this, tid, seq, token] {
        Thread &th = threads_[tid];
        const std::size_t j = th.rob.indexOf(seq);
        if (j == RobRing::npos || th.rob.token(j) != token ||
            !(th.rob.flags(j) & robflags::kMemPending))
            return; // squashed (and possibly re-used) in the meantime
        std::uint8_t &f = th.rob.flags(j);
        f = static_cast<std::uint8_t>(
            (f & ~robflags::kMemPending) | robflags::kCompleted);
        wake(th, j);
        --th.memPendingCount;
        th.rob.readyCycle(j) = clock_->now;
        recordLoadObserved(th, j, clock_->now, kInvalidSeqNum);
    });
}

void
Core::execStore(Thread &t, std::size_t i)
{
    const MicroOp &op = t.rob.op(i);
    const SeqNum seq = t.rob.seqAt(i);
    t.sb.setAddress(seq, op.addr, op.size);
    // Stores translate at address generation too.
    t.rob.readyCycle(i) =
        clock_->now + p_.aguLat + t.dtlb.access(op.addr);
    const StorePrefetchPolicy policy =
        config_.idealSb ? StorePrefetchPolicy::AtCommit : config_.policy;
    if (policy == StorePrefetchPolicy::AtExecute && l1d_) {
        // Speculative prefetch for ownership as soon as the address is
        // known — wrong-path stores prefetch too (the policy's cost).
        MemRequest pf;
        pf.cmd = MemCmd::StorePF;
        pf.blockAddr = blockAlign(op.addr);
        pf.core = coreId_;
        pf.region = op.region;
        l1d_->issueStorePrefetch(pf);
    }
}

void
Core::recordLoadObserved(const Thread &t, std::size_t i, Cycle cycle,
                         SeqNum forwardedFrom)
{
    if (!eventLog_ || (t.rob.flags(i) & robflags::kWrongPath))
        return;
    check::MemEvent ev;
    ev.kind = check::MemEvent::Kind::LoadObserved;
    ev.thread = t.tid;
    ev.seq = t.rob.seqAt(i);
    ev.addr = t.rob.op(i).addr;
    ev.size = t.rob.op(i).size;
    ev.cycle = cycle;
    ev.forwardedFrom = forwardedFrom;
    eventLog_->record(ev);
}

void
Core::issueStage()
{
    // Oldest-first within a thread. A thread's ready-bitmap walk
    // resumes after its last issue: an entry passed over this cycle
    // stays unissuable (its producers are older uops of the same
    // thread, and the ports only fill up).
    const int nt = threads();
    std::size_t from[kMaxThreads] = {};
    IssueSlots slots;
    for (int tid = rotate_, idle = 0;
         slots.issued < p_.issueWidth && idle < nt;
         tid = nextTurn(tid, nt)) {
        // A thread with nothing in the IQ skips the scan entirely.
        Thread &t = threads_[tid];
        if (t.iqCount != 0 && issueNext(t, from[tid], slots))
            idle = 0;
        else
            ++idle;
    }
    if (slots.issued != 0)
        return;

    const Cycle now = clock_->now;
    for (Thread &t : threads_) {
        if (t.rob.empty())
            continue;
        ++t.stats.noIssueCycles;
        if (t.memPendingCount == 0)
            continue;
        const std::size_t n = t.rob.size();
        for (std::size_t i = 0; i < n; ++i) {
            constexpr std::uint8_t want = robflags::kMemPending;
            constexpr std::uint8_t care =
                robflags::kMemPending | robflags::kWrongPath;
            if ((t.rob.flags(i) & care) == want &&
                now > t.rob.issuedAt(i) + kL1HitLatency) {
                ++t.stats.execStallL1dPending;
                break;
            }
        }
    }
}

bool
Core::issueNext(Thread &t, std::size_t &from, IssueSlots &slots)
{
    const Cycle now = clock_->now;
    const std::size_t n = t.rob.size();
    const std::size_t ring = t.rob.capacity();
    auto unit_free = [this, &slots](OpClass cls) {
        if (isMemOp(cls))
            return slots.memUsed < p_.memPorts;
        const bool alu = slots.intUsed + slots.fpUsed < p_.intAluCount;
        return isFloatOp(cls) ? alu && slots.fpUsed < p_.fpAluCount : alu;
    };
    for (std::size_t i = from; i < n;) {
        // The next ready entry in the rest of slot(i)'s bitmap word,
        // which ends at the word or the ring boundary. Bits past the
        // youngest entry are clear unless the walk wrapped around to
        // the oldest ones, which land at logical indices >= n.
        const std::size_t s = t.rob.slot(i);
        const std::uint64_t bits = t.readyBits[s >> 6] >> (s & 63);
        if (bits == 0) {
            i += std::min<std::size_t>((s | 63) + 1, ring) - s;
            continue;
        }
        i += static_cast<std::size_t>(std::countr_zero(bits));
        if (i >= n)
            break;
        const OpClass cls = t.rob.op(i).cls;
        if (!unit_free(cls)) {
            ++i;
            continue;
        }

        t.rob.flags(i) = static_cast<std::uint8_t>(
            (t.rob.flags(i) & ~robflags::kInIq) | robflags::kIssued);
        clearReady(t, t.rob.slot(i));
        --t.iqCount;
        --iqInUse_;
        t.rob.issuedAt(i) = now;
        ++slots.issued;
        // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle issues nothing (noIssueCycles is accrued instead)
        ++t.stats.issuedUops;

        if (cls == OpClass::Load) {
            ++slots.memUsed;
            startLoad(t, i);
        } else if (cls == OpClass::Store) {
            ++slots.memUsed;
            execStore(t, i);
        } else if (isFloatOp(cls)) {
            ++slots.fpUsed;
            t.rob.readyCycle(i) = now + p_.opLatency(cls);
        } else {
            ++slots.intUsed;
            t.rob.readyCycle(i) = now + p_.opLatency(cls);
        }
        // Everything but a load that went to memory completes by
        // timer; track the earliest such timer for the walk gate.
        if (!(t.rob.flags(i) & robflags::kMemPending)) {
            t.timers.push_back(t.rob.seqAt(i));
            if (t.rob.readyCycle(i) < t.nextTimerCycle)
                t.nextTimerCycle = t.rob.readyCycle(i);
        }
        from = i + 1;
        return true;
    }
    from = n;
    return false;
}

StallResource
Core::dispatchBlocker(const Thread &t, const FetchedUop &f) const
{
    if (t.rob.size() >= robPerThread_)
        return StallResource::Rob;
    if (iqInUse_ >= p_.iqSize)
        return StallResource::Iq;
    if (f.op.cls == OpClass::Load && t.lqCount >= lqPerThread_)
        return StallResource::Lq;
    if (f.op.cls == OpClass::Store && t.sb.full())
        return StallResource::Sb;
    if (f.op.hasDest) {
        if (isFloatOp(f.op.cls) && t.fpRegsFree == 0)
            return StallResource::Regs;
        if (!isFloatOp(f.op.cls) && t.intRegsFree == 0)
            return StallResource::Regs;
    }
    return StallResource::None;
}

void
Core::dispatchStage()
{
    const Cycle now = clock_->now;
    unsigned budget = p_.dispatchWidth;
    const int nt = threads();
    std::uint32_t stalled = 0; //!< bit per thread: stall charged
    for (int tid = rotate_, idle = 0; budget > 0 && idle < nt;
         tid = nextTurn(tid, nt)) {
        Thread &t = threads_[tid];
        const std::uint32_t bit = 1u << tid;
        // An empty pipe or a head still traversing the front end.
        if ((stalled & bit) != 0 || t.fetchPipe.empty() ||
            now < t.fetchPipe.front().fetchCycle + p_.frontEndDepth) {
            ++idle;
            continue;
        }
        FetchedUop &f = t.fetchPipe.front();
        const StallResource blocker = dispatchBlocker(t, f);
        if (blocker != StallResource::None) {
            stalled |= bit;
            ++idle;
            // One thread charges a stall only to a cycle that dispatched
            // nothing. Several threads each charge their first stall of
            // the cycle, dispatched or not — the SMT model's
            // attribution, kept so its results stay put.
            if (nt > 1 || budget == p_.dispatchWidth) {
                ++t.stats.dispatchStalls[static_cast<int>(blocker)];
                if (blocker == StallResource::Sb) {
                    ++t.stats.sbStallsByRegion[static_cast<int>(
                        t.sb.headRegion())];
                }
            }
            continue;
        }
        idle = 0;

        const SeqNum seq = t.nextSeq++;
        const std::size_t i = t.rob.pushBack(seq, t.nextToken++);
        t.rob.op(i) = f.op;
        t.rob.flags(i) = static_cast<std::uint8_t>(
            robflags::kInIq | (f.wrongPath ? robflags::kWrongPath : 0));
        auto to_seq = [seq](std::uint8_t dist) {
            return dist == 0 || seq <= dist ? kInvalidSeqNum : seq - dist;
        };
        t.rob.src1(i) = to_seq(f.op.srcDist1);
        t.rob.src2(i) = to_seq(f.op.srcDist2);
        linkSources(t, i);
        ++t.iqCount;
        ++iqInUse_;
        if (f.op.cls == OpClass::Load)
            ++t.lqCount;
        if (f.op.cls == OpClass::Store)
            t.sb.allocate(seq, f.op.region, f.wrongPath);
        if (f.op.hasDest) {
            if (isFloatOp(f.op.cls))
                --t.fpRegsFree;
            else
                --t.intRegsFree;
        }
        t.fetchPipe.popFront();
        --budget;
    }
}

MicroOp
Core::synthesizeWrongPath(Thread &t)
{
    const std::uint64_t r = t.rng.below(100);
    const std::uint64_t pc = 0x00660000 + t.rng.below(64) * 4;
    if (r < 55)
        return uops::alu(pc, 1);
    // Wrong-path memory ops wander around the recently touched data
    // (+-1 MiB): close enough to pollute the caches, too scattered to
    // act as a useful prefetcher for the correct path.
    auto wander = [&t] {
        const Addr span = 2ULL << 20;
        const Addr off = t.rng.below(span);
        const Addr base = t.lastDataAddr > (span / 2)
                              ? t.lastDataAddr - span / 2
                              : t.lastDataAddr;
        return (base + off) & ~Addr{7};
    };
    if (r < 80)
        return uops::load(pc, wander());
    if (r < 90)
        return uops::store(pc, wander());
    return uops::branch(pc, false, 1);
}

void
Core::fetchStage()
{
    const Cycle now = clock_->now;
    const int nt = threads();
    unsigned budget = p_.fetchWidth;
    for (int tid = rotate_, idle = 0; budget > 0 && idle < nt;
         tid = nextTurn(tid, nt)) {
        Thread &t = threads_[tid];
        // An exhausted fetch budget blocks correct-path fetch only.
        if (t.fetchPipe.size() >= fetchBufPerThread_ ||
            (!t.wrongPathMode && fetchBudget_ == 0)) {
            ++idle;
            continue;
        }
        idle = 0;
        FetchedUop f;
        f.fetchCycle = now;
        f.wrongPath = t.wrongPathMode;
        if (t.wrongPathMode) {
            f.op = synthesizeWrongPath(t);
            // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle fetches nothing
            ++t.stats.wrongPathFetched;
        } else {
            if (fetchBudget_ != kUnlimitedFetchBudget)
                --fetchBudget_;
            f.op = t.trace->next();
            if (isMemOp(f.op.cls))
                t.lastDataAddr = f.op.addr;
            if (f.op.cls == OpClass::Branch && f.op.mispredicted)
                t.wrongPathMode = true;
        }
        // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle fetches nothing
        ++t.stats.fetchedUops;
        t.fetchPipe.pushBack(std::move(f));
        --budget;
    }
}

} // namespace spburst
