#!/usr/bin/env python3
"""Benchmark of the ARVI reproduction: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-regen --seed 42 --seconds 36 --trace 0
    python3 perfbench/run.py --all              # every workload, every metric
    python3 perfbench/run.py --refresh          # regenerate perfbench/refs/

With --trace 0 a run repeats the workload (one fresh process per
repetition) for --seconds seconds, at least three times, and reports
the median of each end-to-end metric. With --trace 1 it makes one
traced run, which drives the workload's cells at one thread in process
and times every layer from outside. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the metrics and the workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS = BENCH_DIR / "refs"
OUT = BENCH_DIR / "out"

WORKLOADS = ["paper-regen", "scenario-gskew", "sampled-long"]
DEFAULT_SEED = 42  # keep in step with perfbench::work::DEFAULT_SEED
HELD_OUT_SEED = 1_000_003  # keep in step with perfbench::work::HELD_OUT_SEED
PINNED_SEEDS = [DEFAULT_SEED, HELD_OUT_SEED]
MIN_REPS = 3
SETUP_MARKER = {"paper-regen": "sweep:"}
DEFAULT_MARKER = "perfbench: setup done"
# Cell runs one `experiments` process makes: Figure 5 (24) + Figure 6 (96).
PAPER_CELL_RUNS = 120
PAPER_MEASURED_INSTS = PAPER_CELL_RUNS * 500_000
# Printed with the end-to-end metrics but not in BENCHMARK.json (see README).
PRINTED_ONLY = {"failed_frac": "ratio", "ipc_err_pct": "%", "ci_cover_frac": "ratio"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workload_threads(workload):
    """scenario-gskew runs at one thread; the others at every core."""
    return 1 if workload == "scenario-gskew" else nproc()


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / "target")).resolve()


def git_rev():
    """The commit checked out, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Builds `experiments` and the in-process driver (release)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "arvi-bench", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(BENCH_DIR / "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return target_dir() / "release" / "experiments", target_dir() / "release" / "perfbench"


class Rep:
    """One child process: wall time, set-up time, peak RSS and output."""

    def __init__(self, cmd, marker):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.setup_s = None
        err_lines = []

        def read_stderr():
            for raw in proc.stderr:
                line = raw.decode(errors="replace")
                if self.setup_s is None and line.startswith(marker):
                    self.setup_s = time.perf_counter() - t0
                err_lines.append(line)

        reader = threading.Thread(target=read_stderr)
        reader.start()
        self.stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - t0
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.stderr = "".join(err_lines)
        # ru_maxrss is in KiB on Linux.
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if self.code != 0:
            log(f"{' '.join(map(str, cmd))} exited {self.code}:\n{self.stderr[-2000:]}")

    def json(self):
        lines = self.stdout.decode().strip().splitlines()
        return json.loads(lines[-1]) if self.code == 0 and lines else None


def ref_path(workload, seed):
    return REFS / f"{workload}-{seed}.json"


def load_ref(workload, seed):
    path = ref_path(workload, seed)
    return json.loads(path.read_text()) if path.exists() else None


def differing_cells(cells, reference, what):
    """Positions of the cells whose digest differs from `reference` (a
    list of [label, digest] pairs, or None when nothing is pinned)."""
    if reference is None:
        return set()
    if [c[0] for c in cells] != [c[0] for c in reference]:
        log(f"{what}: cell list differs from the reference")
        return set(range(len(cells)))
    bad = {i for i, (c, r) in enumerate(zip(cells, reference)) if c[1] != r[1]}
    for i in sorted(bad)[:10]:
        log(f"{what}: {cells[i][0]} differs from the reference")
    return bad


class Tally:
    """Cells or units attempted and failed, over every repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        """One repetition: `failed` holds the positions of its failed
        cells, each counted once however many checks it fails."""
        assert all(0 <= i < attempted for i in failed)
        self.attempted += attempted
        self.failed += len(failed)


def run_reps(cmd, marker, seconds):
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(Rep(cmd, marker))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            return reps


def end_to_end(workload, seed, seconds, experiments, driver):
    """Runs one workload untraced; returns (tally, metric values)."""
    threads = workload_threads(workload)
    tally = Tally()
    marker = SETUP_MARKER.get(workload, DEFAULT_MARKER)
    pinned = load_ref(workload, seed)
    if workload == "paper-regen":
        expected = (REFS / "paper-regen.stdout").read_bytes()
        reps = run_reps([str(experiments), "--threads", str(threads)], marker, seconds)
        matched = 0
        for r in reps:
            ok = r.code == 0 and r.stdout == expected and r.setup_s is not None
            if r.code == 0 and r.stdout != expected:
                log("paper-regen: experiments stdout differs from refs/paper-regen.stdout")
            matched += ok
            tally.add(PAPER_CELL_RUNS, set() if ok else set(range(PAPER_CELL_RUNS)))
        insts = [PAPER_MEASURED_INSTS] * len(reps)
        if matched == len(reps):
            # --refresh pins the totals of the in-process cells whose
            # Figure 6 tables it found in this same stdout, so a
            # byte-identical stdout carries those totals.
            sim = pinned
        else:
            # Measure the simulated totals in process, at the same cells.
            sim = Rep([str(driver), "run", "--workload", workload, "--threads", str(threads)],
                      DEFAULT_MARKER).json()
    else:
        cmd = [str(driver), "run", "--workload", workload, "--seed", str(seed),
               "--threads", str(threads)]
        reps = run_reps(cmd, marker, seconds)
        results = [r.json() for r in reps]
        first = next((s for s in results if s is not None), None)
        reference = pinned["cells"] if pinned else (first and first["cells"])
        insts = []
        for r, s in zip(reps, results):
            if s is None or r.setup_s is None:
                n = len(first["cells"]) if first else 1
                tally.add(n, set(range(n)))
                continue
            insts.append(s["reported_insts"])
            bad = set(s["implausible"]) | differing_cells(s["cells"], reference, workload)
            for i in sorted(s["implausible"])[:10]:
                log(f"{workload}: {s['cells'][i][0]} fails a plausibility check")
            tally.add(len(s["cells"]), bad)
        sim = first
    good = [(r, n) for r, n in zip(reps, insts) if r.code == 0 and r.setup_s is not None]
    if not good or sim is None:
        return tally, None
    values = {
        "wall_s": statistics.median([r.wall_s for r, _ in good]),
        "setup_s": statistics.median([r.setup_s for r, _ in good]),
        "sim_minst_per_s": statistics.median([n / (r.wall_s - r.setup_s) / 1e6 for r, n in good]),
        "peak_rss_mb": statistics.median([r.peak_rss_mb for r, _ in good]),
        "sim_ipc": sim["committed"] / sim["cycles"],
        "branch_accuracy": sim["cond_correct"] / sim["cond_total"],
    }
    truth = pinned and pinned.get("truth")
    if truth:
        errs = [abs(e["ipc"] - t["ipc"]) / t["ipc"] * 100.0
                for e, t in zip(sim["estimates"], truth)]
        covered = [e["ipc_lo"] <= t["ipc"] <= e["ipc_hi"] for e, t in zip(sim["estimates"], truth)]
        values["ipc_err_pct"] = statistics.mean(errs)
        values["ci_cover_frac"] = sum(covered) / len(truth)
    if pinned is None:
        # Unpinned seed: print the digests so two commits can be compared.
        log(f"{workload} seed {seed} digests: {json.dumps(sim['cells'])}")
    log(f"{workload}: {len(reps)} repetitions")
    return tally, values


def traced(workload, seed, driver, stamp):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    rep = Rep([str(driver), "trace", "--workload", workload, "--seed", str(seed),
               "--threads", str(workload_threads(workload)), "--spans-out", str(spans),
               "--stamp", json.dumps(stamp, separators=(",", ":"))], DEFAULT_MARKER)
    tally = Tally()
    out = rep.json()
    if out is None:
        tally.add(1, {0})
        return tally, None
    pinned = load_ref(workload, seed)
    cells = out["cells"]
    bad = differing_cells(cells, pinned and pinned["cells"], workload + " traced")
    if not out["digests_match"]:
        log(f"{workload}: traced and untraced drives disagree")
        bad = set(range(len(cells)))
    if not out["layer_counts_match"]:
        log(f"{workload}: layer-pass counts differ from the machine's")
        bad = set(range(len(cells)))
    tally.add(len(cells), bad)
    log(f"{workload}: {out['spans']} spans written to {spans.relative_to(ROOT)}")
    return tally, out["metrics"]


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def stamp_for(args, seed):
    return {
        "git_rev": git_rev(),
        "nproc": nproc(),
        "profile": "release",
        "argv": sys.argv,
        "seed": seed,
        "workload": args.workload,
        "trace": bool(args.trace),
    }


def one(args, experiments, driver):
    """One workload, traced or not: the `--workload` entry."""
    e2e_units, layer_units = declared()
    # `experiments` has no seed flag: paper-regen always runs seed 42.
    seed = DEFAULT_SEED if args.workload == "paper-regen" else args.seed
    stamp = stamp_for(args, seed)
    print("provenance: " + json.dumps(stamp))
    if args.trace:
        tally, values = traced(args.workload, seed, driver, stamp)
        wanted = layer_units
    else:
        tally, values = end_to_end(args.workload, seed, args.seconds, experiments, driver)
        wanted = e2e_units
    if values is None or any(k not in values for k in wanted):
        log("no result: the workload did not run to the end")
        return 1
    values["failed_frac"] = tally.failed / max(tally.attempted, 1)
    units = {**PRINTED_ONLY, **wanted}
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": wanted[k]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args, experiments, driver):
    """Every workload, untraced: prints every end-to-end metric."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload} ==")
        sub = argparse.Namespace(**{**vars(args), "workload": workload, "trace": 0})
        status |= one(sub, experiments, driver)
    return status


def refresh(experiments, driver):
    """Regenerates every pinned reference under perfbench/refs/."""
    REFS.mkdir(exist_ok=True)
    rep = Rep([str(experiments), "--threads", str(nproc())], "sweep:")
    if rep.code != 0:
        return 1
    for workload in WORKLOADS:
        seeds = [DEFAULT_SEED] if workload == "paper-regen" else PINNED_SEEDS
        for seed in seeds:
            out = Rep([str(driver), "run", "--workload", workload, "--seed", str(seed),
                       "--threads", str(workload_threads(workload))], DEFAULT_MARKER).json()
            if out is None or out["implausible"]:
                log(f"{workload} seed {seed}: the in-process run failed its checks")
                return 1
            missing = [t.splitlines()[0] for t in out["tables"] if t.encode() not in rep.stdout]
            if workload == "paper-regen" and (len(out["tables"]) != 6 or missing):
                log(f"paper-regen: experiments stdout lacks the in-process tables {missing}")
                return 1
            if workload == "paper-regen":
                (REFS / "paper-regen.stdout").write_bytes(rep.stdout)
            ref = {"workload": workload, "seed": seed,
                   **{k: out[k] for k in ("committed", "cycles", "cond_correct", "cond_total")},
                   "cells": out["cells"]}
            if workload == "sampled-long":
                truth = Rep([str(driver), "truth", "--seed", str(seed),
                             "--threads", str(nproc())], DEFAULT_MARKER).json()
                if truth is None:
                    return 1
                ref["truth"] = truth["streams"]
            ref_path(workload, seed).write_text(json.dumps(ref, indent=1) + "\n")
            log(f"wrote {ref_path(workload, seed).relative_to(ROOT)}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload untraced")
    p.add_argument("--refresh", action="store_true", help="regenerate the pinned references")
    args = p.parse_args()
    if not (args.all or args.refresh or args.workload):
        p.error("give --workload, --all or --refresh")
    if not (ROOT / "Cargo.toml").exists():
        log("no Cargo workspace at the checkout root: nothing to benchmark")
        return 2
    experiments, driver = build()
    if args.refresh:
        return refresh(experiments, driver)
    if args.all:
        return run_all(args, experiments, driver)
    return one(args, experiments, driver)


if __name__ == "__main__":
    sys.exit(main())
