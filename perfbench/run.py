#!/usr/bin/env python3
"""Repository benchmark: maintenance wall-clock and serving tail.

    python3 perfbench/run.py --workload ptf25-real --seed 1 --seconds 36 \\
        --trace 0

Builds avm_perfbench (perfbench/CMakeLists.txt, Release) into .bench_build/,
runs one workload, checks its outputs, prints a report and, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of an untraced run: a run repeats
each of its datasets, and every timing takes each dataset's fastest repeat
(analysis.end_to_end), since other work on a shared host only adds time.
--trace 1
splits the time between an untraced and a traced run of the same seed and
reports the per-layer metrics; the traced run also writes a Chrome trace
(open it in https://ui.perfetto.dev) under .bench_build/out/.

Why each workload:
  ptf25-real        PTF-25 view over real nightly batches, 4 executor
                    threads, in memory: the scan-path join kernel and
                    executor parallelism dominate; the planner barely shows.
  geo-churn         GEO view, 1% insert batches each followed by an equal
                    deletion batch, serial: triple generation, Algorithms
                    1-3, the probe join path and retraction show.
  ptf5-serve-spill  PTF-5 view, serial, a buffer budget of a quarter of the
                    in-memory footprint, two open-loop readers: spill and
                    reload, copy-on-write under epoch pins, the query tail.
                    Each reader is due every 10 ms (100 Hz), a fixed load;
                    a query misses when it takes longer than that period.
                    serve.offered_load_frac reports the load as a share of
                    the closed-loop saturation rate the run measures.

Seeds: DEFAULT_SEED when --seed is omitted; HELD_OUT_SEED is kept for
confirming a claimed gain on inputs the change was not tuned on.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
OUT = os.path.join(WORK, "out")
WORKLOADS = ("ptf25-real", "geo-churn", "ptf5-serve-spill")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
BUILD_TIMEOUT_S = 850
PROGRAM_TIMEOUT_S = 170

LAYERS = (
    ("setup (workload, cluster, view; timed)", ("setup.",)),
    ("maintenance report fields", ("maintenance.", "deletions.")),
    ("maintenance stages (span self time)", ("plan.", "maint.", "exec.")),
    ("join", ("join.", "shape_cache.")),
    ("storage, array", ("store.", "chunk.", "chunk_pool.")),
    ("buffer", ("buffer.",)),
    ("serve", ("serve.",)),
    ("common thread pool", ("pool.",)),
    ("outcomes (untraced run)", ("delete_", "query_", "failed_")),
    ("benchmark", ("loadgen.", "trace.", "samples.")),
)


class BenchError(Exception):
    pass


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        try:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: %s (log: %s)" % (cmd[0], log))
    if done.returncode != 0:
        with open(log) as f:
            tail = f.read()[-3000:]
        raise BenchError("%s failed (exit %d):\n%s" %
                         (" ".join(cmd), done.returncode, tail))


def build():
    os.makedirs(WORK, exist_ok=True)
    log = os.path.join(WORK, "build.log")
    if os.path.exists(log):
        os.remove(log)
    run_logged(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD, "--target", "avm_perfbench",
                "-j", str(os.cpu_count() or 1)], log, BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "avm_perfbench")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True, timeout=10,
                          check=True).stdout.strip()


def commit():
    """The checked-out commit, marked "+dirty" when the tree has changes."""
    try:
        head = git("rev-parse", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def run_program(binary, workload, seed, seconds, traced):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-%s" %
                        (workload, seed, "traced" if traced else "untraced"))
    spill = os.path.join(WORK, "spill-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0",
           "--out", stem + ".json", "--spill-dir", spill]
    if traced:
        cmd += ["--chrome-trace", stem + ".trace.json"]
    if os.path.exists(stem + ".log"):
        os.remove(stem + ".log")
    try:
        run_logged(cmd, stem + ".log", PROGRAM_TIMEOUT_S)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    with open(stem + ".json") as f:
        raw = json.load(f)
    if not raw["provenance"]["optimized"]:
        raise BenchError("refusing to record numbers from an unoptimized "
                         "build (%s)" % raw["provenance"]["build_type"])
    return raw


def layer_of(name):
    for layer, prefixes in LAYERS:
        if name.startswith(prefixes):
            return layer
    return "other"


def report(args, raws, metrics):
    prov = dict(raws[0]["provenance"])
    prov.update(commit=commit(), datasets=raws[0]["config"]["datasets"])
    seqs = raws[0]["sequences"]
    if seqs[0]["budget_bytes"]:
        prov.update(buffer_budget_mib=seqs[0]["budget_bytes"] / analysis.MIB,
                    footprint_mib=seqs[0]["footprint_bytes"] / analysis.MIB)
    if raws[0]["config"]["reader_hz"]:
        outcomes = analysis.serving(raws[0])
        prov.update(open_loop_hz=raws[0]["config"]["reader_hz"] *
                    prov["reader_threads"],
                    query_limit_ms=analysis.query_limit_ms(raws[0]),
                    saturation_hz=outcomes["serve.saturation_hz"][0])
    prov["sampler_threads"] = raws[-1]["provenance"]["sampler_threads"]
    for key in ("trace", "seconds"):
        prov.pop(key)
    print("perfbench %s seed %d trace %d" %
          (args.workload, args.seed, args.trace))
    print("  " + ", ".join("%s=%s" % kv for kv in sorted(prov.items())))
    wall = analysis.statistics.median(
        s["maint_wall_s"] for s in raws[-1]["sequences"])
    current = None
    order = [layer for layer, _ in LAYERS] + ["other"]
    for name, (value, unit) in sorted(
            metrics.items(), key=lambda kv: order.index(layer_of(kv[0]))):
        layer = layer_of(name) if args.trace else "end to end"
        if layer != current:
            print(layer)
            current = layer
        share = ""
        if args.trace and unit == "s" and layer.startswith("maint") and wall:
            share = "  (%.1f%% of maint_wall_s)" % (100.0 * value / wall)
        print("  %-32s %14.6g %-6s%s" % (name, value, unit, share))
    return prov


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
        if args.trace:
            untraced = run_program(binary, args.workload, args.seed,
                                  args.seconds / 2, False)
            traced = run_program(binary, args.workload, args.seed,
                                args.seconds / 2, True)
            raws = [untraced, traced]
            metrics = analysis.per_layer(traced, untraced)
        else:
            raws = [run_program(binary, args.workload, args.seed,
                               args.seconds, False)]
            metrics = analysis.end_to_end(raws[0])
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    attempted, failed = map(sum, zip(*map(analysis.outcome_counts, raws)))
    ok = all(analysis.correct(raw) for raw in raws)
    provenance = report(args, raws, metrics)
    result = {"correct": ok, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    stamped = dict(result, provenance=provenance)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.result.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(stamped, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
