#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_driver from source and runs one
workload against the public system::System API.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The driver is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

A run expands --seed into a fixed list of sub-seeds, one per repetition, and
runs each repetition in its own single-threaded driver process. With
--trace 0 every repetition is untraced and the run reports the end-to-end
metrics. With --trace 1 each sub-seed runs once untraced and once traced
(metrics registry, stage-aggregating trace, audit sweeps), and the run
reports the per-layer metrics and writes the traced repetitions' spans.
Whole passes over the sub-seeds repeat while a full pass still fits in
--seconds. A sub-seed's figure is the median over its repetitions (how many
passes fit varies, so the estimate must not depend on their number); each
reported figure is the median over sub-seeds, and set-up time the median
over every repetition.

Correctness, checked on every run: each repetition's own checks (query and
tenant conservation, no dropped messages, at least 1,000 results, no audit
violations when traced); identical simulated-domain outputs whenever a
sub-seed runs again, traced or not; and other inputs for another seed.

The human-readable table goes to standard output first; the last line is the
JSON result. The exit code is 0 only when the run is correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sub-seeds per run. A seed fixes the topology, the interest hotspots and the
# query mix, so figures differ more between seeds than between repetitions;
# the median over this many sub-seeds is what keeps a run's figures steady.
# Sized so one untraced pass takes about 8 s on a 4-core 2 GHz Xeon VM, so a
# 30 s run makes at least two passes even when the machine runs 1.5x slow.
SUBSEEDS = {"metro_traffic": 20, "install_storm": 10, "churn_adapt": 32}
# Traced runs pair every sub-seed with an untraced repetition, so use fewer.
TRACED_SUBSEEDS = 4

# Metric names and units, in report order, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

PHASES = ("setup", "install", "run", "collect")
MASK64 = (1 << 64) - 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def subseed(seed, index):
    """SplitMix64 of (seed, index): distinct sub-seeds per seed."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def build():
    """Configures and builds the driver; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no dsps sources under {ROOT}; run from a full checkout")
        return None
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return build_dir / "perfbench_driver"


def drive(driver, args):
    """Runs the driver once; returns (exit code, parsed last line or None)."""
    proc = subprocess.run([str(driver)] + args, capture_output=True, text=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def run_reps(driver, workload, seeds, traced, seconds, spans_dir):
    """Passes over `seeds` while a whole pass fits; returns per-seed rep lists
    {seed: {"untraced": [...], "traced": [...]}} and failure messages."""
    reps = {s: {"untraced": [], "traced": []} for s in seeds}
    failures = []
    start = time.monotonic()
    passes = 0
    while True:
        pass_start = time.monotonic()
        for s in seeds:
            modes = ["untraced", "traced"] if traced else ["untraced"]
            for mode in modes:
                args = ["--workload", workload, "--seed", str(s)]
                if mode == "traced":
                    args += ["--traced", "--spans",
                             str(spans_dir / f"{workload}-{s}.spans.jsonl")]
                code, rep = drive(driver, args)
                if rep is None:
                    failures.append(f"sub-seed {s} {mode}: driver exited "
                                    f"{code} without a result")
                    continue
                for f in rep["failures"]:
                    failures.append(f"sub-seed {s} {mode}: {f}")
                if code != 0 and not rep["failures"]:
                    failures.append(f"sub-seed {s} {mode}: exit code {code}")
                reps[s][mode].append(rep)
        passes += 1
        now = time.monotonic()
        if failures or now - start + (now - pass_start) > seconds:
            break
    # Determinism probe: an untraced run that got only one pass repeats its
    # first sub-seed once.
    if passes == 1 and not traced and not failures:
        code, rep = drive(driver, ["--workload", workload, "--seed",
                                   str(seeds[0])])
        if rep is None:
            failures.append(f"sub-seed {seeds[0]}: repeat exited {code}")
        else:
            reps[seeds[0]]["probe"] = [rep]
    return reps, failures


def determinism_failures(reps):
    """Every repetition of a sub-seed, traced or not, must agree exactly on
    the simulated-domain outputs."""
    out = []
    compared = 0
    for s, modes in reps.items():
        runs = [r for mode in modes.values() for r in mode]
        for r in runs[1:]:
            compared += 1
            if r["sim"] != runs[0]["sim"]:
                diff = {k: (runs[0]["sim"].get(k), v)
                        for k, v in r["sim"].items()
                        if runs[0]["sim"].get(k) != v}
                out.append(f"sub-seed {s}: simulated outputs differ between "
                           f"repetitions: {diff}")
    if compared == 0:
        out.append("determinism not checked: no sub-seed ran twice")
    return out


def per_seed(reps, mode, section, name):
    """One value per sub-seed: the median over its repetitions."""
    values = []
    for modes in reps.values():
        vals = [r[section][name] for r in modes[mode] if name in r[section]]
        if vals:
            values.append(statistics.median(vals))
    return values


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(reps, traced):
    """Returns (metrics {name: value}, printable table lines)."""
    lines = []
    metrics = {}
    if not traced:
        for name in E2E_UNITS:
            if name == "setup_s":
                # Every repetition sets up once: the median over all of them.
                vals = [r["e2e"][name] for m in reps.values()
                        for r in m["untraced"]]
            else:
                vals = per_seed(reps, "untraced", "e2e", name)
            metrics[name] = median(vals)
        lines.append(f"{'metric':28s} {'value':>16s}  unit")
        for name, unit in E2E_UNITS.items():
            lines.append(f"{name:28s} {metrics[name]:16.6g}  {unit}")
        return metrics, lines

    # Per-layer: driver-timed wall figures from the untraced repetitions,
    # everything else from the traced ones.
    for name in LAYER_UNITS:
        if name.startswith("telemetry."):
            continue
        vals = per_seed(reps, "untraced", "layer_wall", name)
        if not vals:
            vals = per_seed(reps, "traced", "layer", name)
        metrics[name] = median(vals)

    def phase_median(mode, key, phase):
        return median([r[key][phase] for m in reps.values() for r in m[mode]])

    untraced = {p: phase_median("untraced", "phase_s", p) for p in PHASES}
    traced_s = {p: phase_median("traced", "phase_s", p) for p in PHASES}
    metrics["telemetry.overhead_ratio"] = (sum(traced_s.values()) /
                                           sum(untraced.values()))
    metrics["telemetry.overhead_ratio.install"] = (traced_s["install"] /
                                                   untraced["install"])
    metrics["telemetry.overhead_ratio.run"] = traced_s["run"] / untraced["run"]

    first = next(iter(reps.values()))["untraced"][0]
    lines.append(f"{'layer metric':38s} {'value':>16s}  unit")
    for name, unit in LAYER_UNITS.items():
        q = first["quantile_used"].get(name)
        note = f"  (at p{q * 100:g}: too few samples for more)" if (
            q is not None and q < (0.99 if name.endswith("p99") else 0.5)
        ) else ""
        lines.append(f"{name:38s} {metrics[name]:16.6g}  {unit}{note}")
    lines.append("")
    lines.append(f"{'phase':10s} {'untraced s':>12s} {'traced s':>12s} "
                 f"{'self s':>12s}")
    for p in PHASES:
        lines.append(f"{p:10s} {untraced[p]:12.6f} {traced_s[p]:12.6f} "
                     f"{phase_median('untraced', 'phase_self_s', p):12.6f}")
    lines.append("")
    lines.append(f"{'call (phase/name)':36s} {'count':>8s} {'total s':>12s}")
    for call, count in first["call_count"].items():
        total = median([r["call_s"][call] for m in reps.values()
                        for r in m["untraced"]])
        lines.append(f"{call:36s} {count:8.0f} {total:12.6f}")
    return metrics, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUBSEEDS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    driver = build()
    if driver is None:
        return 2
    traced = args.trace == 1
    seeds = [subseed(args.seed, i) for i in range(
        TRACED_SUBSEEDS if traced else SUBSEEDS[args.workload])]
    spans_dir = driver.parent / "spans"
    spans_dir.mkdir(exist_ok=True)

    digests = []
    for s in (seeds[0], subseed(args.seed + 1, 0)):
        proc = subprocess.run([str(driver), "--workload", args.workload,
                               "--seed", str(s), "--digest"],
                              capture_output=True, text=True)
        digests.append(proc.stdout.strip() if proc.returncode == 0 else None)

    reps, failures = run_reps(driver, args.workload, seeds, traced,
                              args.seconds, spans_dir)
    if None in digests:
        failures.append("input digest failed")
    elif digests[0] == digests[1]:
        failures.append(f"seeds {args.seed} and {args.seed + 1} generate "
                        "identical inputs")
    if not failures:
        failures += determinism_failures(reps)
    for f in failures:
        log("perfbench: FAILED: " + f)

    all_reps = [r for m in reps.values() for mode in m.values() for r in mode]
    if not all(m["untraced"] for m in reps.values()) or (
            traced and not all(m["traced"] for m in reps.values())):
        return 1
    metrics, lines = summarize(reps, traced)
    mode = "traced (per-layer)" if traced else "untraced (end-to-end)"
    passes = min(len(m["untraced"]) for m in reps.values())
    print(f"perfbench {args.workload} seed {args.seed}: {mode}, "
          f"{len(seeds)} sub-seeds x {passes} pass(es), "
          f"{len(all_reps)} driver runs")
    if traced:
        print(f"spans: {spans_dir}/{args.workload}-<sub-seed>.spans.jsonl")
    for line in lines:
        print(line)
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(op_fail_ratio {failed / attempted:.6g}); "
          f"correct: {'yes' if not failures else 'NO'}")
    units = LAYER_UNITS if traced else E2E_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
