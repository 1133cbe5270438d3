#!/usr/bin/env python3
"""Same-host A/B throughput gate for the simulator.

Builds `spburst_perf` twice -- once from a base revision (exported with
`git archive`), once from the current checkout -- then runs both for
PAIRS pairs at UOPS uops per workload and compares the median total
uops/s. Exits 1 when median(head) / median(base) is below MIN_RATIO.
Running both sides on one host puts host speed on both sides of the
ratio, so it measures the change rather than the machine; the order
within a pair alternates (base-head, then head-base) so a drift or
warm-up effect does not always favour the same side.

Usage (from anywhere inside the repository):

    tools/simspeed_ab.py --base=origin/main
    tools/simspeed_ab.py --base=HEAD       # no-op change: expect ~1.0

The head's last report is copied to --out (default
<work>/BENCH_simspeed.json) as a trajectory record; it is not a gate
input. Both sides' host fingerprints (CPU model, nproc, compiler, build
type) are printed with the result; a base that predates the fingerprint
prints "not recorded".
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

PAIRS = 5
UOPS = 100000
MIN_RATIO = 0.95


def run(cmd, **kw):
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kw)


def build(src, build_dir):
    run(["cmake", "-S", src, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "--target", "spburst_perf",
         "-j" + str(os.cpu_count() or 1)], stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, "tools", "spburst_perf")


def measure(perf, out):
    """Run one spburst_perf; return {workload name: uops/s}, incl. total."""
    run([perf, "--uops=" + str(UOPS), "--out=" + out],
        stdout=subprocess.DEVNULL)
    with open(out) as f:
        report = json.load(f)
    rates = {w["name"]: float(w["uops_per_sec"])
             for w in report["workloads"]}
    rates["total"] = float(report["total"]["uops_per_sec"])
    return rates


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against")
    ap.add_argument("--work", default="build-simspeed",
                    help="scratch directory for the two builds")
    ap.add_argument("--out", help="where to copy the head's last report")
    args = ap.parse_args()

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          check=True, capture_output=True,
                          text=True).stdout.strip()
    work = os.path.abspath(os.path.join(root, args.work))
    base_src = os.path.join(work, "base-src")
    shutil.rmtree(base_src, ignore_errors=True)
    os.makedirs(base_src)
    archive = subprocess.Popen(["git", "-C", root, "archive", args.base],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", base_src], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("git archive %s failed" % args.base)

    perf = {
        "base": build(base_src, os.path.join(work, "base")),
        "head": build(root, os.path.join(work, "head")),
    }
    runs = {"base": [], "head": []}
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            out = os.path.join(work, "%s-%d.json" % (side, i))
            runs[side].append(measure(perf[side], out))
            print("pair %d %s: %.1fk uops/s"
                  % (i + 1, side, runs[side][-1]["total"] / 1e3),
                  flush=True)

    def median(side, name):
        return statistics.median(r[name] for r in runs[side])

    print("median(head) / median(base) uops/s per workload:")
    for name in runs["head"][0]:
        if name != "total" and name in runs["base"][0]:
            print("  %-14s %5.3f"
                  % (name, median("head", name) / median("base", name)))
    for side in ("base", "head"):
        totals = [r["total"] for r in runs[side]]
        print("%s: median %.1fk uops/s (min %.1fk, max %.1fk)"
              % (side, median(side, "total") / 1e3, min(totals) / 1e3,
                 max(totals) / 1e3))
    for side in ("base", "head"):
        with open(os.path.join(work, "%s-%d.json" % (side, PAIRS - 1))) as f:
            host = json.load(f).get("host")
        print("%s host: %s" % (side, json.dumps(host, sort_keys=True)
                               if host else "not recorded"))
    ratio = median("head", "total") / median("base", "total")
    print("median(head) / median(base) = %.3f (gate >= %.2f)"
          % (ratio, MIN_RATIO))

    last = os.path.join(work, "head-%d.json" % (PAIRS - 1))
    out = args.out or os.path.join(work, "BENCH_simspeed.json")
    with open(last) as src, open(out, "w") as dst:
        dst.write(src.read())
    if ratio < MIN_RATIO:
        print("FAIL: head is slower than base beyond the gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
