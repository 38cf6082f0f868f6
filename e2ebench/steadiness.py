#!/usr/bin/env python3
"""Steadiness study of the end-to-end benchmark.

Run from the repository root:

    # ten runs of every workload, one seed each, appended to a JSON-lines file
    python3 e2ebench/steadiness.py run --seeds 1-10 --label A --out runs.jsonl
    # median, quartiles and spread per workload and metric; with two labels,
    # also how far the second set's median moved from the first's
    python3 e2ebench/steadiness.py summarize runs.jsonl [--labels A,B]
        [--markdown]
    # host drift: rate of a fixed zlib loop in 2-second windows
    python3 e2ebench/steadiness.py drift --seconds 60

The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles(values, n=4)) as a share
of their median. A metric is steady when that spread stays within its
bound in BENCHMARK.json, and when a second set of runs does not move
the median the worse way by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of \\p values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_shift(first, second, better):
    """How far \\p second's median is worse than \\p first's, as a share
    of the first (negative when it is better)."""
    a, b = statistics.median(first), statistics.median(second)
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def cmd_run(args):
    workloads = args.workloads.split(",") if args.workloads else \
        [n for n, _ in bench.WORKLOADS]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                start = time.monotonic()
                r = subprocess.run(
                    [sys.executable, os.path.join(bench.HERE, "run.py"),
                     "--workload", w, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
                wall = time.monotonic() - start
                lines = r.stdout.strip().splitlines()
                info = [json.loads(x[len("# info "):]) for x in lines
                        if x.startswith("# info ")]
                row = {"label": args.label, "workload": w, "seed": seed,
                       "exit": r.returncode, "wall_s": wall,
                       "result": json.loads(lines[-1]) if lines else None,
                       "info": info[0] if info else None}
                out.write(json.dumps(row) + "\n")
                out.flush()
                print(f"{args.label} {w:<15} seed {seed:<4} exit "
                      f"{r.returncode} wall {wall:5.1f} s", flush=True)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def markdown(rows, labels):
    """The per-set table and the set-to-set shifts, as markdown."""
    print("| workload | metric | set | n | median | q1 | q3 | spread | "
          "bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w, _ in bench.WORKLOADS:
        for name, unit, better, bound in bench.END_TO_END:
            for label in labels:
                vals = [r["result"]["metrics"][name]["value"] for r in rows
                        if r["label"] == label and r["workload"] == w
                        and r["result"]]
                if len(vals) < 2:
                    continue
                med, q1, q3, s = spread(vals)
                print(f"| {w} | {name} ({unit}) | {label} | {len(vals)} | "
                      f"{med:.4g} | {q1:.4g} | {q3:.4g} | {s:.2%} | "
                      f"{bound:g} |")
    if len(labels) == 2:
        print()
        print("| workload | " + " | ".join(n for n, *_ in bench.END_TO_END)
              + " |")
        print("|---|" + "---|" * len(bench.END_TO_END))
        for w, _ in bench.WORKLOADS:
            cells = []
            for name, unit, better, bound in bench.END_TO_END:
                sets = [[r["result"]["metrics"][name]["value"] for r in rows
                         if r["label"] == label and r["workload"] == w
                         and r["result"]] for label in labels]
                cells.append(f"{worse_shift(sets[0], sets[1], better):+.2%}")
            print(f"| {w} | " + " | ".join(cells) + " |")


def cmd_summarize(args):
    rows = load(args.file)
    if args.labels:
        rows = [r for r in rows if r["label"] in args.labels.split(",")]
    labels = sorted({r["label"] for r in rows})
    if args.markdown:
        markdown(rows, labels)
        return 0
    bad = [r for r in rows if r["exit"] != 0 or not r["result"]
           or not r["result"]["correct"] or r["result"]["failed"]]
    print(f"{len(rows)} runs, labels {labels}, {len(bad)} failed")
    for w, _ in bench.WORKLOADS:
        for name, unit, better, bound in bench.END_TO_END:
            sets = []
            for label in labels:
                vals = [r["result"]["metrics"][name]["value"] for r in rows
                        if r["label"] == label and r["workload"] == w
                        and r["result"]]
                if len(vals) >= 2:
                    sets.append((label, vals))
            for label, vals in sets:
                med, q1, q3, s = spread(vals)
                flag = "" if name == "setup_s" or s <= bound / 3 else \
                    (" >bound/3" if s <= bound else " >BOUND")
                print(f"{label} {w:<15} {name:<16} n={len(vals):<3} "
                      f"median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                      f" spread {s:7.2%} bound {bound:.0%}{flag}")
            if len(sets) == 2:
                shift = worse_shift(sets[0][1], sets[1][1], better)
                flag = " >BOUND" if shift > bound else ""
                print(f"   {w:<15} {name:<16} median moved {shift:+.2%} "
                      f"the worse way ({sets[0][0]} -> {sets[1][0]}){flag}")
    walls = [r["wall_s"] for r in rows]
    if walls:
        print(f"wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
    return 1 if bad else 0


def cmd_drift(args):
    if not bench.build():
        return 1
    r = subprocess.run([bench.MEASURE, "--drift", str(args.seconds)],
                       stdout=subprocess.PIPE, text=True, check=True)
    rates = [float(x) for x in r.stdout.split()]
    med, q1, q3, s = spread(rates)
    print(f"{len(rates)} two-second windows of a fixed zlib loop "
          f"(iterations/s): min {min(rates):.3f} max {max(rates):.3f} "
          f"median {med:.3f} quartile spread {s:.2%} "
          f"max/min {max(rates) / min(rates) - 1:.2%}")
    for width in (5, 10):
        means = [statistics.mean(rates[i:i + width])
                 for i in range(0, len(rates) - width + 1, width)]
        if len(means) >= 2:
            print(f"{2 * width}-s windows: "
                  + ", ".join(f"{m:.3f}" for m in means)
                  + f"  (max/min {max(means) / min(means) - 1:.2%})")
    print("rates: " + " ".join(f"{x:.3f}" for x in rates))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--label", default="A")
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=float, default=bench.RUN_SECONDS)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("file")
    s.add_argument("--labels", default="",
                   help="comma-separated labels to keep (default: all)")
    s.add_argument("--markdown", action="store_true")
    d = sub.add_parser("drift")
    d.add_argument("--seconds", type=float, default=60)
    args = p.parse_args(argv)
    return {"run": cmd_run, "summarize": cmd_summarize,
            "drift": cmd_drift}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
