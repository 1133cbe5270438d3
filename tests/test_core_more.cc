/**
 * @file
 * Additional core-pipeline tests: DTLB timing at address generation,
 * load-queue stall attribution, front-end depth, memory-port limits
 * and fetch-buffer bounds.
 */

#include <gtest/gtest.h>

#include "common/clock.hh"
#include "cpu/core.hh"
#include "mem/memory_system.hh"
#include "trace/source.hh"

namespace spburst
{
namespace
{

class CoreMoreTest : public ::testing::Test
{
  protected:
    void
    build(std::vector<MicroOp> uops, CoreConfig cfg = CoreConfig{},
          bool loop = true)
    {
        mem = std::make_unique<MemorySystem>(MemSystemParams::tableI(1),
                                             &clock);
        trace = std::make_unique<VectorSource>(std::move(uops), loop);
        core = std::make_unique<Core>(
            cfg, 0, &clock, &mem->l1d(0),
            std::vector<TraceSource *>{trace.get()});
    }

    void
    runUops(std::uint64_t target, Cycle budget = 3'000'000)
    {
        const Cycle limit = clock.now + budget;
        while (core->committed() < target && clock.now < limit) {
            clock.tick();
            core->tick();
        }
        ASSERT_GE(core->committed(), target) << "core made no progress";
    }

    void
    tickOne()
    {
        clock.tick();
        core->tick();
    }

    SimClock clock;
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<VectorSource> trace;
    std::unique_ptr<Core> core;
};

TEST_F(CoreMoreTest, TlbMissesChargePageWalks)
{
    // Loads striding one page apart: every access touches a new page
    // until the TLB warms; with 64 entries over a 128-page footprint,
    // misses keep coming.
    std::vector<MicroOp> uops;
    for (int i = 0; i < 128; ++i)
        uops.push_back(
            uops::load(0x1000 + i * 4, 0x10000000 + Addr(i) * kPageSize));
    build(std::move(uops));
    runUops(5000);
    EXPECT_GT(core->dtlb().stats().misses, 100u);
}

TEST_F(CoreMoreTest, PageLocalLoadsHitTlb)
{
    std::vector<MicroOp> uops;
    for (int i = 0; i < 64; ++i)
        uops.push_back(uops::load(0x1000 + i * 4, 0x10000000 + i * 8));
    build(std::move(uops));
    runUops(5000);
    EXPECT_LE(core->dtlb().stats().misses, 2u);
    EXPECT_GT(core->dtlb().stats().hits, 4000u);
}

TEST_F(CoreMoreTest, TlbMissSlowsSerialLoadChain)
{
    // Two identical dependent-load chains, one page-local and one
    // page-striding: the striding one must take longer because of the
    // page walks. The trace must NOT loop — with a looping trace, the
    // out-of-order lookahead of the next iteration's independent head
    // load warms the TLB in parallel and hides the walks (which is
    // itself realistic behaviour).
    auto run_chain = [&](bool stride_pages) {
        std::vector<MicroOp> uops;
        for (int i = 0; i < 32; ++i) {
            const Addr addr = stride_pages
                                  ? 0x40000000 + Addr(i) * kPageSize
                                  : 0x40000000 + Addr(i) * kBlockSize;
            uops.push_back(uops::load(0x1000 + i * 4, addr, 8,
                                      i == 0 ? 0 : 1)); // serial chain
        }
        clock = SimClock{};
        build(std::move(uops), CoreConfig{}, /*loop=*/false);
        runUops(32);
        return clock.now;
    };
    const Cycle local = run_chain(false);
    const Cycle striding = run_chain(true);
    EXPECT_GT(striding, local + 500u)
        << "32 page walks at ~50 cycles each must be visible";
}

TEST_F(CoreMoreTest, LqFullStallsAttributedToLq)
{
    // Long-latency loads flood the LQ (cold, all distinct blocks).
    std::vector<MicroOp> uops;
    for (int i = 0; i < 256; ++i)
        uops.push_back(
            uops::load(0x1000 + i * 4, 0x20000000 + Addr(i) * kBlockSize));
    CoreConfig cfg;
    cfg.params.lqSize = 4;
    build(std::move(uops), cfg);
    runUops(1000);
    EXPECT_GT(core->stats()
                  .dispatchStalls[static_cast<int>(StallResource::Lq)],
              100u);
}

TEST_F(CoreMoreTest, TinyRobStallsAttributedToRob)
{
    std::vector<MicroOp> uops;
    uops.push_back(uops::load(0x1000, 0x30000000)); // slow head
    for (int i = 0; i < 32; ++i)
        uops.push_back(uops::alu(0x1010 + i * 4));
    CoreConfig cfg;
    cfg.params.robSize = 8;
    cfg.params.iqSize = 8;
    build(std::move(uops), cfg);
    runUops(2000);
    const auto &s = core->stats();
    EXPECT_GT(s.dispatchStalls[static_cast<int>(StallResource::Rob)] +
                  s.dispatchStalls[static_cast<int>(StallResource::Iq)],
              100u);
}

TEST_F(CoreMoreTest, MemPortsLimitLoadIssue)
{
    // All-independent L1-resident loads: throughput capped by the two
    // memory ports, not the issue width.
    std::vector<MicroOp> uops;
    for (int i = 0; i < 8; ++i)
        uops.push_back(uops::load(0x1000 + i * 4, 0x40000000 + i * 8));
    build(std::move(uops));
    runUops(40'000);
    const double ipc = static_cast<double>(core->stats().committedUops) /
                       static_cast<double>(core->stats().cycles);
    EXPECT_LT(ipc, 2.3) << "2 memory ports cap load IPC at ~2";
    EXPECT_GT(ipc, 1.5);
}

TEST_F(CoreMoreTest, FrontEndDepthDelaysFirstCommit)
{
    std::vector<MicroOp> uops{uops::alu(0x1000)};
    CoreConfig cfg;
    cfg.params.frontEndDepth = 20;
    build(std::move(uops), cfg);
    while (core->committed() == 0)
        tickOne();
    EXPECT_GE(clock.now, 20u)
        << "nothing can commit before traversing the front end";
}

} // namespace
} // namespace spburst
