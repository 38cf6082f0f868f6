#!/usr/bin/env python3
"""cjpack's end-to-end benchmark: pack, unpack, unpack_indexed and serve.

Run from the repository root:

    python3 e2ebench/run.py --workload pack --seed 9001 --seconds 18 --trace 0
    python3 e2ebench/run.py --workload all        # every workload, in turn
    python3 e2ebench/run.py --trace 1 --workload serve   # the traced run
    python3 e2ebench/run.py --write-benchmark-json       # regenerate it
    python3 e2ebench/run.py --test                # the benchmark's own tests

The first call configures and builds a Release build of src/ plus the
measuring program in .bench_build/e2ebench (about a minute on 4 cores);
later calls only check that build is current. Each workload runs in its
own measuring process. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it
print every metric by name with its unit. A wrong output makes the
command exit 1. README.md in this directory describes the workloads and
the metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
TRACE_DIR = os.path.join(".bench_build", "traces")
MEASURE = os.path.join(BUILD_DIR, "e2ebench_measure")

DEFAULT_SEED = 9001
# Seed 424242 was never run while the benchmark was written and tuned;
# it is the held-out seed a claimed gain must also hold on (README.md).
RUN_SECONDS = 18
MEASURE_TIMEOUT_S = 175
# The first run in a checkout builds; build and run together must stay
# within 900 s.
BUILD_TIMEOUT_S = 700

WORKLOADS = [
    ("pack",
     "packClassBytes of one 250-class jar (4 shards, 4 threads): the only "
     "workload running parse, prepare, model/emit and the serial deflate"),
    ("unpack",
     "unpackArchive of one v2 archive (4 threads): the paper's receiver, "
     "the decode direction of the same coder and backends pack drives"),
    ("unpack_indexed",
     "open + unpackAll + write of one v3 archive: the reader's open, "
     "per-shard inflate and prefix decode, serial today"),
    ("serve",
     "warm cjpackd unpack-class, 4 closed-loop unix-socket clients, Zipf "
     "archive popularity: materialize, write, framing, pool and shard locks"),
]

# (name, unit, better, bound). Bounds come from the steadiness study in
# STEADINESS.md: at least three times the widest run-to-run spread seen
# for the metric on any workload, capped at 0.25.
END_TO_END = [
    ("throughput_mb_s", "MB/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("archive_ratio", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

PER_LAYER = [
    ("classfile.parse_ms", "ms", "lower"),
    ("classfile.prepare_ms", "ms", "lower"),
    ("classfile.write_ms", "ms", "lower"),
    ("pack.encode_ms", "ms", "lower"),
    ("pack.model_ms", "ms", "lower"),
    ("pack.emit_ms", "ms", "lower"),
    ("pack.deflate_ms", "ms", "lower"),
    ("pack.shard_max_ms", "ms", "lower"),
    ("pack.coder_refs", "count", "lower"),
    ("pack.coder_defs", "count", "lower"),
    ("pack.raw_stream_bytes", "bytes", "lower"),
    ("pack.archive_bytes", "bytes", "lower"),
    ("pack.decode_ms", "ms", "lower"),
    ("pack.reader_open_ms", "ms", "lower"),
    ("pack.reader_decode_ms", "ms", "lower"),
    ("pack.reader_inflated_bytes", "bytes", "lower"),
    ("pack.reader_fetch_ms", "ms", "lower"),
    ("serve.service_p50_ms", "ms", "lower"),
    ("serve.service_p99_ms", "ms", "lower"),
    ("serve.wait_p50_ms", "ms", "lower"),
    ("serve.wait_p99_ms", "ms", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("op.other_ms", "ms", "lower"),
    ("trace.overhead_p50_ms", "ms", "lower"),
]


def benchmark_json():
    """The BENCHMARK.json this benchmark is defined by."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target="e2ebench_measure"):
    """Configures (once) and builds \\p target; returns False on failure."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("e2ebench: run from the root of a cjpack checkout "
            "(src/CMakeLists.txt not found)")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"e2ebench: build step failed: {e}")
            return False
        if r.returncode != 0:
            log(f"e2ebench: build step failed: {' '.join(cmd)}")
            return False
    return True


def validate(result, trace):
    """Checks a measured result against BENCHMARK.json's rules; returns a
    problem or None."""
    if not isinstance(result, dict):
        return "result is not an object"
    for key, kind in (("correct", bool), ("attempted", int),
                      ("failed", int), ("metrics", dict)):
        if not isinstance(result.get(key), kind):
            return f"missing or mistyped '{key}'"
    if result["attempted"] < 1:
        return "no op attempted"
    want = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    got = result["metrics"]
    if sorted(got) != sorted(want):
        return (f"metric set differs: missing {sorted(set(want) - set(got))}"
                f", extra {sorted(set(got) - set(want))}")
    units = {n: u for n, u, *_ in PER_LAYER + END_TO_END}
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                not math.isfinite(v):
            return f"{name}: value is not a finite number"
        if m.get("unit") != units[name]:
            return f"{name}: unit {m.get('unit')!r}, want {units[name]!r}"
    if not trace:
        zero = [n for n, m in got.items() if m["value"] == 0]
        if zero:
            return f"end-to-end metrics read 0: {zero}"
    return None


def run_workload(name, seed, seconds, trace):
    """Runs one workload in its own measuring process; returns (result,
    info) or (None, None) when it produced no result."""
    workdir = os.path.join(".bench_build", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [MEASURE, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=MEASURE_TIMEOUT_S)
        lines = r.stdout.strip().splitlines()
        full = json.loads(lines[-1]) if lines else None
    except (OSError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"e2ebench: {name}: measuring process failed: {e}")
        full = None
    if full and trace and "trace_file" in full.get("info", {}):
        os.makedirs(TRACE_DIR, exist_ok=True)
        dest = os.path.join(TRACE_DIR, os.path.basename(
            full["info"]["trace_file"]))
        shutil.move(full["info"]["trace_file"], dest)
        full["info"]["trace_file"] = dest
    shutil.rmtree(workdir, ignore_errors=True)
    if not full:
        return None, None
    info = full.pop("info", {})
    return full, info


def print_table(name, result, info, trace):
    print(f"== {name} (seed {info.get('seed')}, "
          f"{'traced' if trace else 'untraced'}) ==")
    if not trace:
        print(f"  samples {info.get('samples')}; latency_tail_ms is "
              f"p{info.get('tail_percentile'):g} with "
              f"{info.get('samples_beyond_tail')} samples beyond")
        print(f"  times are scaled to the reference host speed; the host-"
              f"speed kernel took {info.get('kernel_ms_median'):.3f} ms "
              f"(median; reference {info.get('kernel_ms_reference'):g} ms)."
              f" Unscaled: throughput {info.get('raw_throughput_mb_s'):.4f}"
              f" MB/s, p50 {info.get('raw_latency_p50_ms'):.4f} ms, tail "
              f"{info.get('raw_latency_tail_ms'):.4f} ms, setup "
              f"{info.get('raw_setup_s'):.4f} s")
        for q in ("p90", "p99"):
            v = info.get(f"latency_{q}_ms")
            if v is not None:
                print(f"  (ungated) {'latency_' + q + '_ms':<18} "
                      f"{v:>16.6g} ms")
    else:
        print(f"  traced ops {info.get('traced_ops')}, untraced ops "
              f"{info.get('untraced_ops')}, spans {info.get('spans')} "
              f"in {info.get('trace_file')}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<28} {m['value']:>16.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':<28} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} ops failed or wrong)")


def run_tests():
    if not build("e2ebench_math_test"):
        return 1
    rc = subprocess.run([os.path.join(BUILD_DIR, "e2ebench_math_test")]
                        ).returncode
    rc |= subprocess.run([sys.executable, "-m", "unittest", "discover",
                          "-s", HERE, "-p", "test_*.py"]).returncode
    return 1 if rc else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=[n for n, _ in WORKLOADS] + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json from the definitions here")
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args(argv)

    if args.write_benchmark_json:
        with open("BENCHMARK.json", "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.test:
        return run_tests()
    if not build():
        return 1

    trace = bool(args.trace)
    names = [n for n, _ in WORKLOADS] if args.workload == "all" \
        else [args.workload]
    results = {}
    ok = True
    for name in names:
        result, info = run_workload(name, args.seed, args.seconds, trace)
        if result is None:
            return 1
        problem = validate(result, trace)
        if problem:
            log(f"e2ebench: {name}: {problem}")
            return 1
        print_table(name, result, info, trace)
        print("# info " + json.dumps(info))
        ok &= result["correct"] and result["failed"] == 0
        results[name] = result
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
