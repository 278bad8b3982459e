"""One workload in one fresh process; spawned by ``run.py``.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is everything from process start to the ``ready`` line: importing
``crossfourier`` and building the workload's systems, elements and configs.
Then the child runs whole task cycles until ``--seconds`` have passed.  With
``--trace 1`` the first half of the time is untraced and the second half
traced, so the tracing overhead is measured on the same task mix in the
same process.

Protocol on stdout, one line each: ``ready {json}``, ``speed <factor>`` (the
host-speed scale of ``Probe`` just after set-up), then per task
``task <ok 0|1> <seconds> <scaled seconds> <phase> <label>``, then ``done {json}``.
"""

import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def emit(kind, payload):
    sys.stdout.write(f"{kind} {payload}\n")
    sys.stdout.flush()


def blas_threads() -> int:
    """Thread count OpenBLAS reports, or -1 when no OpenBLAS is found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


class Probe:
    """Host speed: a fixed pure-Python loop and a fixed small matrix product.

    Other tenants of a shared host slow a whole process by up to ~40% for
    tens of seconds at a time, through the core and cache they share, so a
    wall-clock task time measures them as much as the program; CPU time is
    slowed alike.  Timing this fixed code just before and just after a task
    tells how fast the host ran meanwhile.  ``REFERENCE_S`` is its time on
    an idle reference host (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4
    with single-threaded OpenBLAS); a task's host-scaled time is its wall
    time times ``REFERENCE_S`` over the mean of the two probes around it.
    """

    REFERENCE_S = 2.0e-3

    def __init__(self):
        import numpy

        self.matrix = numpy.random.default_rng(0).normal(size=(160, 160))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(4):
            self.matrix @ self.matrix
        return time.perf_counter() - t0


def run_phase(wl, budget_s, phase, tracer, first_id, probe):
    """Whole cycles until budget_s has elapsed; returns (tasks, scaled task seconds, wall, cpu).

    Each task line carries its wall time and its host-scaled time (see ``Probe``).
    """
    n, busy = 0, 0.0
    before = probe()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while n == 0 or time.perf_counter() - wall0 < budget_s:
        for label, run, check in wl.cycle():
            t0 = time.perf_counter()
            try:
                out = tracer.run_task(first_id + n, run) if tracer else run()
            except Exception as exc:  # a crashing task is a failed task, not a crashed run
                dt = time.perf_counter() - t0
                ok, note = False, f"{type(exc).__name__}: {exc}"
            else:
                dt = time.perf_counter() - t0
                try:
                    ok, note = check(out)
                except Exception as exc:
                    ok, note = False, f"check raised {type(exc).__name__}: {exc}"
            after = probe()
            scaled = dt * Probe.REFERENCE_S / (0.5 * (before + after))
            before = after
            n += 1
            busy += scaled
            emit("task", f"{int(ok)} {dt!r} {scaled!r} {phase} {label}")
            if not ok:
                sys.stderr.write(f"failed {label}: {note}\n")
    return n, busy, time.perf_counter() - wall0, time.process_time() - cpu0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](abs(args.seed))  # numpy seeds must be non-negative
    emit("ready", json.dumps({"cycle_len": wl.cycle_len, "tail_pct": wl.tail_pct}))
    probe = Probe()
    emit("speed", repr(Probe.REFERENCE_S / statistics.median(probe() for _ in range(5))))
    if args.setup_only:
        return 0

    summary = {}
    if args.trace:
        import crossfourier.crossed
        from tracer import Tracer, instrument, layer_metrics

        half = args.seconds / 2
        n0, busy0, wall0, cpu0 = run_phase(wl, half, "untraced", None, 0, probe)
        tracer = Tracer()
        instrument(tracer, getattr(crossfourier.crossed, "_DENSE_SVD_LIMIT", 600))
        n1, busy1, _, _ = run_phase(wl, half, "traced", tracer, n0, probe)
        layers = layer_metrics(tracer, n1)
        layers["cli.report.digest_mismatch"] = len(getattr(wl, "digest_mismatch", ()))
        layers["proc.cpu_per_wall"] = cpu0 / wall0
        layers["proc.blas_threads"] = blas_threads()
        layers["trace_overhead_frac"] = (busy1 / n1) / (busy0 / n0) - 1.0
        summary["layers"] = layers
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        summary["trace_file"] = str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(summary["trace_file"], {"workload": args.workload, "seed": args.seed,
                                            "layers": layers, "env": environment()})
    else:
        n0, busy0, wall0, cpu0 = run_phase(wl, args.seconds, "untraced", None, 0, probe)
        summary["cpu_per_wall"] = cpu0 / wall0
        summary["blas_threads"] = blas_threads()

    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if getattr(wl, "gaps", None):
        summary["sandwich_gap"] = statistics.median(wl.gaps)
    if hasattr(wl, "digest_mismatch"):
        summary["digest_mismatch"] = sorted(wl.digest_mismatch)
    summary["env"] = environment()
    emit("done", json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
