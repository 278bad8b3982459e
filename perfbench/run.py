#!/usr/bin/env python3
"""crossfourier benchmark: three closed-loop workloads, each in fresh child processes.

    python3 perfbench/run.py --workload arith|norms|experiments|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json from perfbench/layers.json

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the last line of stdout is a JSON object whose metrics are the
end-to-end metrics; with ``--trace 1`` they are the per-layer metrics of a
separate traced run (see ``perfbench/layers.json`` for every metric's unit,
direction, the layer it belongs to and the end-to-end metric it should
move).  Times are host-scaled: each is its wall time scaled by the speed
of the host around it, as timed by a fixed probe (see ``Probe`` in
``child.py``); the plain wall-clock figures are printed in the notes.
Latency percentiles are taken over tasks each counted at its label's
median time (see ``label_medians``).
Set-up time is the median of five cold starts: four set-up-only children
plus the measuring child itself.  Each child gets a wall-clock limit; when
it is hit, the tasks left in the current cycle count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks (numpy's default method)."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n, pinned):
    """The workload's pinned percentile, lowered until >= 10 tasks lie beyond it."""
    fits = [p for p in TAIL_LADDER if p <= pinned and n * (1 - p / 100.0) >= 10]
    return fits[-1] if fits else 100.0


def label_medians(tasks):
    """Each task's host-scaled time replaced by the median over its label's repeats.

    A label is one kind of task (a config, a norm spec, a system and support
    size), repeated once per cycle.  Percentiles of these medians stay inside
    one kind's repeats instead of jumping between the edges of two kinds
    whose single repeats overlap.
    """
    by_label = {}
    for task in tasks:
        by_label.setdefault(task[4], []).append(task[2])
    median = {label: statistics.median(times) for label, times in by_label.items()}
    return [median[task[4]] for task in tasks]


class Child:
    """One child process whose stdout lines are stamped on arrival."""

    def __init__(self, argv, limit_s):
        # A fixed string-hash seed removes one source of process-to-process
        # spread; the child pins the BLAS threads itself.
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.lines = []
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        reader = threading.Thread(target=self._read, daemon=True)
        reader.start()
        try:
            self.proc.wait(timeout=max(limit_s, 1.0))
            self.timed_out = False
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            self.timed_out = True
        reader.join()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.append((time.perf_counter(), line.rstrip("\n")))
        self.proc.stdout.close()

    def first(self, kind):
        for stamp, line in self.lines:
            if line.startswith(kind + " "):
                return stamp, line[len(kind) + 1:]
        return None, None

    def tasks(self):
        out = []
        for _, line in self.lines:
            if line.startswith("task "):
                ok, seconds, scaled, phase, label = line.split(" ", 5)[1:]
                out.append((ok == "1", float(seconds), float(scaled), phase, label))
        return out


def run_workload(name, seed, seconds, trace, deadline):
    """Run one workload; returns (correct, attempted, failed, metrics, notes)."""
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setup_samples, setup_wall, problems = [], [], []

    def remaining():
        return deadline - time.perf_counter()

    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            child = Child(argv + ["--setup-only"], min(60.0, remaining()))
            stamp, _ = child.first("ready")
            _, speed = child.first("speed")
            if speed is None or child.proc.returncode != 0:
                problems.append(f"set-up child exited with {child.proc.returncode}")
            else:
                setup_wall.append(stamp - child.start)
                setup_samples.append(setup_wall[-1] * float(speed))

    child = Child(argv, min(2 * seconds + 60.0, remaining()))
    ready_at, ready = child.first("ready")
    _, speed = child.first("speed")
    _, done = child.first("done")
    tasks = child.tasks()
    attempted, failed = len(tasks), sum(1 for t in tasks if not t[0])
    cycle_len, tail_pct = 1, 99.0
    if speed is not None:
        info = json.loads(ready)
        cycle_len, tail_pct = info["cycle_len"], info["tail_pct"]
        setup_wall.append(ready_at - child.start)
        setup_samples.append(setup_wall[-1] * float(speed))
    if done is None or child.proc.returncode != 0:
        lost = cycle_len - attempted % cycle_len
        attempted += lost
        failed += lost
        why = "hit its wall-clock limit" if child.timed_out else f"exited with {child.proc.returncode}"
        problems.append(f"measuring child {why}; {lost} unfinished task(s) counted as failed")
    summary = json.loads(done) if done is not None else {}

    if trace:
        metrics = {m["name"]: summary.get("layers", {}).get(m["name"], 0.0) for m in SPEC["per_layer"]}
        notes = {"trace_file": summary.get("trace_file")}
    else:
        lat = sorted(label_medians(tasks))
        wall = sorted(t[1] for t in tasks)
        busy = sum(t[2] for t in tasks)
        correct_tasks = sum(1 for t in tasks if t[0])
        pct = tail_percentile(len(lat), tail_pct)
        metrics = {
            "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
            "tasks_per_s": correct_tasks / busy if busy else 0.0,
            "task_p50_ms": 1e3 * percentile(lat, 50.0) if lat else 0.0,
            "task_tail_ms": 1e3 * percentile(lat, pct) if lat else 0.0,
            "failed_frac": failed / attempted if attempted else 1.0,
            "peak_rss_mb": summary.get("peak_rss_mb", 0.0),
        }
        if "sandwich_gap" in summary:
            metrics["sandwich_gap"] = summary["sandwich_gap"]
        notes = {
            "samples": len(lat),
            "wall_tasks_per_s": correct_tasks / sum(wall) if wall else 0.0,
            "wall_task_p50_ms": 1e3 * percentile(wall, 50.0) if wall else 0.0,
            "wall_task_tail_ms": 1e3 * percentile(wall, pct) if wall else 0.0,
            "tail_percentile": pct,
            "setup_samples": len(setup_samples),
            "wall_setup_s": statistics.median(setup_wall) if setup_wall else 0.0,
            "cpu_per_wall": summary.get("cpu_per_wall"),
            "blas_threads": summary.get("blas_threads"),
            "digest_mismatch": summary.get("digest_mismatch"),
        }
    notes["env"] = summary.get("env")
    notes["problems"] = problems
    return failed == 0 and not problems, attempted, failed, metrics, notes


def write_manifest():
    """BENCHMARK.json is the contract-shaped subset of layers.json."""
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": SPEC["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]} for w in SPEC["workloads"]],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in SPEC["end_to_end"] if "bound" in m
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC["per_layer"]],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "crossfourier" / "__init__.py").is_file():
        print(f"no crossfourier sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    unit = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    reported = {m["name"] for m in SPEC["end_to_end"] if "bound" in m} | {m["name"] for m in SPEC["per_layer"]}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.perf_counter() + DEADLINE_S
        correct, attempted, failed, metrics, notes = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        for key, value in metrics.items():
            print(f"{name:12s} {key:32s} {value:14.6g} {unit[key]}")
        print(f"{name:12s} notes {json.dumps(notes, sort_keys=True)}")
        total["correct"] = total["correct"] and correct
        total["attempted"] += attempted
        total["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in metrics.items():
            if key in reported:
                total["metrics"][prefix + key] = {"value": value, "unit": unit[key]}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
