/**
 * @file
 * `spburst_perf` — host-throughput benchmark for the simulator itself.
 *
 * Runs the standard workload suite on one host thread and reports how
 * fast the simulator simulates: committed uops per host second,
 * simulated cycles per host second, and executed events per host
 * second. Results go to `BENCH_simspeed.json` so the perf trajectory of
 * the simulator is tracked PR over PR (see EXPERIMENTS.md, "Measuring
 * simulator throughput").
 *
 *   spburst_perf                           # suite=all, 200k uops each
 *   spburst_perf --uops=500000 --out=speed.json
 *   spburst_perf --scheduler=heap --no-fast-forward   # pre-PR hot path
 *
 * Host throughput is comparable only on one host: to compare two
 * revisions, tools/simspeed_ab.py builds both and runs them interleaved.
 * The JSON records the host it ran on (CPU model, hardware threads,
 * compiler, build type) so a report is never read against another
 * machine's by mistake.
 */

#include <chrono>
/* spburst-lint: config-host-only(scheduler, no-fast-forward, check,
       out, help)
   -- this tool measures host wall-clock, not simulated results; the
   scheduler / fast-forward knobs exist precisely to compare host
   implementations on identical simulated work. */

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "check/check.hh"
#include "common/logging.hh"
#include "sample/runtime.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

using namespace spburst;

namespace
{

struct Options
{
    std::string suite = "all";
    bool suiteExplicit = false;
    /** ChampSim trace workloads (--trace=, repeatable; kept separate
     *  from --workload because trace specs contain commas). */
    std::vector<std::string> traces;
    std::uint64_t uops = 200'000;
    std::uint64_t seed = 1;
    sample::SampleSpec sample;
    std::string out = "BENCH_simspeed.json";
    SchedulerKind scheduler = SchedulerKind::Calendar;
    bool fastForward = true;
    bool spb = false;
};

struct Sample
{
    std::string name;
    std::uint64_t uops = 0;
    /** Uops retired by functional warming (sampled runs only); the
     *  effective throughput counts these too, since they advance the
     *  workload just as detailed simulation would. */
    std::uint64_t warmedUops = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t ffCycles = 0;
    std::uint64_t events = 0;
    double hostSeconds = 0.0;
};

void
usage()
{
    std::puts(
        "spburst_perf — measure simulator host throughput\n"
        "  --workload=all|sb-bound|parsec|NAME[,NAME...]  (default all)\n"
        "  --trace=FILE[,skip=N][,warmup=N][,roi=N]\n"
        "                         ChampSim trace workload (repeatable)\n"
        "  --uops=N               committed uops per workload "
        "(default 200k)\n"
        "  --seed=N               workload seed (default 1)\n"
        "  --sample=interval=N,window=M[,...]  interval sampling; adds\n"
        "                         a warmed-uops column and effective\n"
        "                         (warmed+detailed) throughput\n"
        "  --spb                  run with Store-Prefetch Bursts on\n"
        "  --scheduler=calendar|heap   (default calendar)\n"
        "  --no-fast-forward      disable quiescence fast-forward\n"
        "  --check=off|fast|full  invariant level (default off)\n"
        "  --out=FILE             JSON output (default "
        "BENCH_simspeed.json)");
}

std::vector<std::string>
expandSuite(const std::string &spec)
{
    if (spec == "all")
        return allSpecNames();
    if (spec == "sb-bound")
        return sbBoundSpecNames();
    if (spec == "parsec")
        return allParsecNames();
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos != std::string::npos) {
        const std::size_t comma = spec.find(',', pos);
        out.push_back(spec.substr(
            pos, comma == std::string::npos ? comma : comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
    }
    return out;
}

Options
parse(int argc, char **argv)
{
    Options o;
    check::setLevel(check::Level::Off);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        const char *v = nullptr;
        if ((v = value("--workload=")) != nullptr) { // spburst-lint: config(key)
            o.suite = v;
            o.suiteExplicit = true;
        } else if ((v = value("--trace=")) != nullptr) { // spburst-lint: config(key)
            o.traces.push_back(std::string("trace:") + v);
        } else if ((v = value("--uops=")) != nullptr) { // spburst-lint: config(key)
            o.uops = std::strtoull(v, nullptr, 10);
        } else if ((v = value("--seed=")) != nullptr) { // spburst-lint: config(key)
            o.seed = std::strtoull(v, nullptr, 10);
        } else if ((v = value("--sample=")) != nullptr) { // spburst-lint: config(key)
            o.sample = sample::SampleSpec::parse(v);
        } else if (arg == "--spb") { // spburst-lint: config(key)
            o.spb = true;
        } else if ((v = value("--scheduler=")) != nullptr) {
            if (std::strcmp(v, "calendar") == 0)
                o.scheduler = SchedulerKind::Calendar;
            else if (std::strcmp(v, "heap") == 0)
                o.scheduler = SchedulerKind::LegacyHeap;
            else
                SPB_FATAL("unknown scheduler '%s'", v);
        } else if (arg == "--no-fast-forward") {
            o.fastForward = false;
        } else if ((v = value("--check=")) != nullptr) {
            check::setLevel(check::parseLevel(v));
        } else if ((v = value("--out=")) != nullptr) {
            o.out = v;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            SPB_FATAL("unknown option '%s'", arg.c_str());
        }
    }
    return o;
}

/** The CPU's brand string from CPUID, or "unknown". */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    const std::string model(brand);
    const std::size_t first = model.find_first_not_of(' ');
    if (first == std::string::npos)
        return "unknown";
    return model.substr(first, model.find_last_not_of(' ') - first + 1);
#else
    return "unknown";
#endif
}

void
printSampleJson(std::FILE *f, const Sample &s)
{
    std::fprintf(
        f,
        "{\"name\": \"%s\", \"uops\": %llu, \"warmed_uops\": %llu, "
        "\"sim_cycles\": %llu, "
        "\"ff_cycles\": %llu, \"events\": %llu, "
        "\"host_seconds\": %.6f, \"uops_per_sec\": %.0f, "
        "\"effective_uops_per_sec\": %.0f, "
        "\"sim_cycles_per_sec\": %.0f, \"events_per_sec\": %.0f}",
        s.name.c_str(), static_cast<unsigned long long>(s.uops),
        static_cast<unsigned long long>(s.warmedUops),
        static_cast<unsigned long long>(s.simCycles),
        static_cast<unsigned long long>(s.ffCycles),
        static_cast<unsigned long long>(s.events), s.hostSeconds,
        static_cast<double>(s.uops) / s.hostSeconds,
        static_cast<double>(s.uops + s.warmedUops) / s.hostSeconds,
        static_cast<double>(s.simCycles) / s.hostSeconds,
        static_cast<double>(s.events) / s.hostSeconds);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    // --trace entries join (or, with no explicit --workload, replace)
    // the synthetic suite, matching spburst_run's convention.
    std::vector<std::string> workloads;
    if (o.traces.empty() || o.suiteExplicit)
        workloads = expandSuite(o.suite);
    workloads.insert(workloads.end(), o.traces.begin(),
                     o.traces.end());
    SPB_ASSERT(!workloads.empty(), "empty workload suite");

    std::vector<Sample> samples;
    Sample total;
    total.name = "total";
    for (const std::string &w : workloads) {
        SystemConfig cfg;
        cfg.workload = w;
        cfg.useSpb = o.spb;
        cfg.maxUopsPerCore = o.uops;
        cfg.seed = o.seed;
        cfg.sample = o.sample;
        cfg.scheduler = o.scheduler;
        cfg.fastForward = o.fastForward;

        System sys(cfg);
        const auto t0 = std::chrono::steady_clock::now();
        const SimResult r = sys.run();
        const auto t1 = std::chrono::steady_clock::now();

        Sample s;
        s.name = w;
        s.uops = r.committedUops();
        if (const auto *info = sys.sampleInfo())
            s.warmedUops = info->warmedUops;
        s.simCycles = r.cycles;
        s.ffCycles = sys.fastForwardedCycles();
        s.events = sys.clock().events.executedEvents();
        s.hostSeconds =
            std::chrono::duration<double>(t1 - t0).count();
        if (s.hostSeconds <= 0.0)
            s.hostSeconds = 1e-9; // clock granularity floor
        total.uops += s.uops;
        total.warmedUops += s.warmedUops;
        total.simCycles += s.simCycles;
        total.ffCycles += s.ffCycles;
        total.events += s.events;
        total.hostSeconds += s.hostSeconds;
        std::printf("%-14s %9.0f kuops/s %10.0f kcycles/s "
                    "%8.0f kevents/s",
                    w.c_str(),
                    static_cast<double>(s.uops) / s.hostSeconds / 1e3,
                    static_cast<double>(s.simCycles) / s.hostSeconds /
                        1e3,
                    static_cast<double>(s.events) / s.hostSeconds /
                        1e3);
        if (o.sample.enabled())
            std::printf(" %9.0f keff/s",
                        static_cast<double>(s.uops + s.warmedUops) /
                            s.hostSeconds / 1e3);
        std::printf("  (%.2fs, %llu%% cycles fast-forwarded)\n",
                    s.hostSeconds,
                    static_cast<unsigned long long>(
                        s.simCycles == 0 ? 0
                                         : 100 * s.ffCycles /
                                               s.simCycles));
        samples.push_back(std::move(s));
    }

    std::printf("%-14s %9.0f kuops/s %10.0f kcycles/s %8.0f kevents/s",
                "TOTAL",
                static_cast<double>(total.uops) / total.hostSeconds /
                    1e3,
                static_cast<double>(total.simCycles) /
                    total.hostSeconds / 1e3,
                static_cast<double>(total.events) / total.hostSeconds /
                    1e3);
    if (o.sample.enabled())
        std::printf(" %9.0f keff/s",
                    static_cast<double>(total.uops + total.warmedUops) /
                        total.hostSeconds / 1e3);
    std::printf(" (%.2fs total)\n", total.hostSeconds);

    std::FILE *f = std::fopen(o.out.c_str(), "w");
    if (f == nullptr)
        SPB_FATAL("cannot write '%s'", o.out.c_str());
    std::fprintf(f,
                 "{\n  \"suite\": \"%s\",\n  \"uops_per_workload\": "
                 "%llu,\n  \"spb\": %s,\n  \"sample\": \"%s\",\n"
                 "  \"scheduler\": \"%s\",\n"
                 "  \"fast_forward\": %s,\n  \"check\": \"%s\",\n"
                 "  \"host\": {\"cpu\": \"%s\", \"nproc\": %u, "
                 "\"compiler\": \"%s\", \"build_type\": \"%s\"},\n"
                 "  \"workloads\": [\n",
                 o.suite.c_str(),
                 static_cast<unsigned long long>(o.uops),
                 o.spb ? "true" : "false",
                 o.sample.enabled() ? o.sample.canonical().c_str() : "",
                 schedulerKindName(o.scheduler),
                 o.fastForward ? "true" : "false",
                 check::levelName(check::level()), cpuModel().c_str(),
                 std::thread::hardware_concurrency(), __VERSION__,
                 SPBURST_BUILD_TYPE);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        std::fprintf(f, "    ");
        printSampleJson(f, samples[i]);
        std::fprintf(f, i + 1 < samples.size() ? ",\n" : "\n");
    }
    std::fprintf(f, "  ],\n  \"total\": ");
    printSampleJson(f, total);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", o.out.c_str());
    return 0;
}
