"""Command-line batch runner.

    crossfourier run <config.json> [--seed N]
    crossfourier validate <config.json> [--seed N]
    crossfourier presets list

One experiment per invocation; compose runs with shell scripts so each
report's provenance stays atomic.  Exit codes: 0 pass, 1 config error,
2 invariant violation.  Set CROSSFOURIER_THREADS to cap BLAS thread pools
(read when the crossfourier package is imported).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

import numpy as np


PRESETS = {
    "psl": {
        "seed": 7,
        "system": {
            "algebra": [1, 1],
            "group": {"family": "free-product-Z2-Z3"},
            "action": {"kind": "trivial"},
            "cocycle": {"kind": "section", "preset": "sl2z"},
        },
        "experiment": {"tag": "psl-preset", "n_samples": 100},
    },
    "nc-torus-fejer": {
        "seed": 11,
        "system": {
            "algebra": [1],
            "group": {"family": "Zd", "d": 2},
            "action": {"kind": "trivial"},
            "cocycle": {"kind": "theta", "theta": "1/5"},
        },
        "experiment": {
            "tag": "fejer",
            "indices": [2, 4, 8, 16],
            "element": {"points": [{"g": "(0,0)"}, {"g": "(1,0)"}, {"g": "(0,1)"}]},
            "radii": [2, 4],
            "target_error": 0.5,
        },
    },
    "z12-arithmetic": {
        "seed": 3,
        "system": {
            "algebra": [1],
            "group": {"family": "finite-cyclic", "n": 12},
            "action": {"kind": "trivial"},
            "cocycle": {"kind": "theta", "theta": "1/12"},
        },
        "experiment": {"tag": "arithmetic-suite", "n_triples": 200},
    },
}


def _round_floats(obj):
    """Clamp every float to 17 significant digits (diffable, round-trip exact)."""
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _round_floats(float(obj))
    if isinstance(obj, np.bool_):
        return bool(obj)
    return str(obj)


def canonical_json(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2, allow_nan=False)


def write_report(report: dict, path: str | None):
    text = canonical_json(report)
    if path:
        Path(path).write_text(text + "\n")
    return text


def write_csv(rows, path: str):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in rows:
            writer.writerow([_round_floats(c) if isinstance(c, float) else c for c in row])


def load_config(path: str) -> dict:
    from .config import ConfigError

    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def run_config(config: dict, seed_override: int | None = None) -> tuple[int, dict]:
    """Execute one experiment; returns (exit code, report dict)."""
    from .config import ConfigError, build_system
    from .experiments import EXPERIMENTS

    if "seed" not in config and seed_override is None:
        raise ConfigError("a seed is mandatory")
    seed = int(seed_override if seed_override is not None else config["seed"])
    exp = config.get("experiment")
    if not isinstance(exp, dict) or "tag" not in exp:
        raise ConfigError("config needs an 'experiment' block with a 'tag'")
    tag = exp["tag"]
    if tag not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment tag {tag!r}")
    system = build_system(config.get("system", {}))
    rng = np.random.default_rng(seed)

    # every run checks the system axioms first; violations outrank the experiment
    if tag != "validate":
        from .system import validate_system

        vreport = validate_system(system, n_samples=60, rng=np.random.default_rng(seed))
        if not vreport.passed:
            report = {
                "config": config,
                "seed": seed,
                "experiment": tag,
                "passed": False,
                "results": {"system_validation": vreport.as_dict()},
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            }
            write_report(report, config.get("output", {}).get("json"))
            return 2, report

    results, csv_rows, passed = EXPERIMENTS[tag](system, exp, rng)
    report = {
        "config": config,
        "seed": seed,
        "experiment": tag,
        "passed": bool(passed),
        "results": results,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    output = config.get("output", {})
    write_report(report, output.get("json"))
    if csv_rows and output.get("csv"):
        write_csv(csv_rows, output["csv"])
    return (0 if passed else 2), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="crossfourier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment named in a config file")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    val_p = sub.add_parser("validate", help="validate the configured system only")
    val_p.add_argument("config")
    val_p.add_argument("--seed", type=int, default=None)

    pre_p = sub.add_parser("presets", help="named example configurations")
    pre_p.add_argument("action", choices=["list", "show"])
    pre_p.add_argument("name", nargs="?")

    args = parser.parse_args(argv)
    from .config import ConfigError

    try:
        if args.command == "presets":
            if args.action == "list":
                for name in sorted(PRESETS):
                    print(name)
                return 0
            if not args.name or args.name not in PRESETS:
                print(f"unknown preset {args.name!r}; available: {sorted(PRESETS)}", file=sys.stderr)
                return 1
            print(canonical_json(PRESETS[args.name]))
            return 0

        config = load_config(args.config)
        if args.command == "validate":
            config = dict(config)
            config["experiment"] = {"tag": "validate"}
        code, report = run_config(config, args.seed)
        summary = {
            "experiment": report["experiment"],
            "passed": report["passed"],
            "json": config.get("output", {}).get("json"),
        }
        print(canonical_json(summary))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
