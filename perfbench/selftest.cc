/**
 * @file
 * Self-test of the benchmark's arithmetic: the percentile rule, span
 * self time, the failure share and metric-name validity. Exits 1 on
 * the first failed expectation; run.py runs it before every benchmark
 * run.
 */

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_stats.hh"
#include "spans.hh"

namespace pb = perfbench;

namespace
{

int gFailures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "perfbench selftest: FAILED %s\n", what);
        ++gFailures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testPercentileRule()
{
    // Nearest rank: p90 of 100 samples is the 90th; 10 lie beyond it.
    expect(pb::samplesBeyond(100, 900) == 10, "10 beyond p90 of 100");
    expect(pb::samplesBeyond(99, 900) == 9, "9 beyond p90 of 99");
    expect(pb::samplesBeyond(20, 500) == 10, "10 beyond p50 of 20");
    expect(pb::samplesBeyond(0, 500) == 0, "nothing beyond an empty set");

    const std::vector<unsigned> c = {500, 900, 990};
    expect(pb::highestReportablePermille(100, c) == 900, "p90 at 100");
    expect(pb::highestReportablePermille(99, c) == 500, "p50 at 99");
    expect(pb::highestReportablePermille(1000, c) == 990, "p99 at 1000");
    expect(pb::highestReportablePermille(19, c) == 0, "none at 19");
    expect(pb::highestReportablePermille(160, c) == 900, "p90 at 160");

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    expect(near(pb::percentile(v, 500), 50.0), "p50 of 1..100");
    expect(near(pb::percentile(v, 900), 90.0), "p90 of 1..100");
    expect(near(pb::percentile({7.0}, 900), 7.0), "p90 of one sample");
    expect(near(pb::median({3.0, 1.0, 2.0}), 2.0), "odd median");
    expect(near(pb::median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");
}

void
testSelfTime()
{
    pb::SpanTree t;
    const int run = t.child(pb::SpanTree::kRoot, "sim.run");
    const int tick = t.child(run, "cpu.tick");
    const int clock = t.child(run, "common.clock_tick");
    expect(t.child(run, "cpu.tick") == tick, "child lookup is stable");
    t.add(pb::SpanTree::kRoot, 1000);
    t.add(run, 900);
    t.add(tick, 500, 10);
    t.add(tick, 100, 2);
    t.add(clock, 200);
    expect(t.selfNs(run) == 100, "self = duration - children");
    expect(t.selfNs(tick) == 600, "leaf self = accumulated duration");
    expect(t.spans()[static_cast<std::size_t>(tick)].calls == 12,
           "calls accumulate");
    expect(t.selfNs(pb::SpanTree::kRoot) == 100, "root self");
    const auto layers = t.layerSelfNs();
    expect(layers.at("cpu") == 600 && layers.at("sim") == 100 &&
               layers.at("common") == 200,
           "self time per layer");
    expect(near(t.coverage(), 0.9), "coverage excludes the root");

    // Children timed separately can overshoot the parent by clock
    // granularity; self time clamps at zero instead of wrapping.
    pb::SpanTree o;
    const int p = o.child(pb::SpanTree::kRoot, "exp.job");
    o.add(p, 10);
    o.add(o.child(p, "sim.run"), 11);
    expect(o.selfNs(p) == 0, "self time never negative");

    // Merging matches spans by path, not by id.
    pb::SpanTree m;
    m.child(pb::SpanTree::kRoot, "other");
    m.merge(t);
    m.merge(t);
    const int m_run = m.child(pb::SpanTree::kRoot, "sim.run");
    const int m_tick = m.child(m_run, "cpu.tick");
    expect(m.nsOf("cpu.tick") == 1200 &&
               m.spans()[static_cast<std::size_t>(m_tick)].calls == 24,
           "merge accumulates by path");
    expect(m.selfNs(m_run) == 200, "merged self time");
    expect(pb::layerOf("cpu.quiescent") == "cpu" &&
               pb::layerOf("run") == "run",
           "layer of a span name");
}

void
testFailureShare()
{
    expect(near(pb::failureShare(0, 160), 0.0), "no failures");
    expect(near(pb::failureShare(4, 160), 0.025), "4 of 160");
    bool threw = false;
    try {
        pb::failureShare(0, 0);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "zero attempts rejected");
    threw = false;
    try {
        pb::failureShare(3, 2);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "more failures than attempts rejected");
}

void
testNames()
{
    expect(pb::validMetricName("uops_per_s"), "plain name");
    expect(pb::validMetricName("job_s.p90"), "dotted name");
    expect(pb::validMetricName("9lives-x"), "digit first");
    expect(!pb::validMetricName(""), "empty name");
    expect(!pb::validMetricName(".hidden"), "leading dot");
    expect(!pb::validMetricName("a b"), "space");
    expect(!pb::validMetricName("p/s"), "slash in a name");
    expect(pb::validMetricName(std::string(64, 'a')), "64 characters");
    expect(!pb::validMetricName(std::string(65, 'a')), "65 characters");
    expect(pb::validUnit("1/s") && pb::validUnit("%") && pb::validUnit("MB"),
           "units");
    expect(!pb::validUnit("") && !pb::validUnit("m s") &&
               !pb::validUnit(std::string(17, 's')),
           "bad units");
}

void
testDigest()
{
    using Stats = std::vector<std::pair<std::string, double>>;
    const Stats a = {{"ipc", 1.5}, {"cycles", 100.0}};
    const Stats b = {{"cycles", 100.0}, {"ipc", 1.5}};
    const Stats c = {{"cycles", 100.0}, {"ipc", std::nextafter(1.5, 2.0)}};
    expect(pb::statsDigest({{"x", a}, {"y", a}}) ==
               pb::statsDigest({{"y", b}, {"x", b}}),
           "digest ignores order");
    expect(pb::statsDigest({{"x", a}}) != pb::statsDigest({{"x", c}}),
           "digest sees the last bit");
    expect(pb::statsDigest({{"x", a}}) != pb::statsDigest({{"y", a}}),
           "digest sees the label");
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTime();
    testFailureShare();
    testNames();
    testDigest();
    if (gFailures != 0)
        return 1;
    std::puts("perfbench selftest: ok");
    return 0;
}
