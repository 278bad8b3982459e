import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crossfourier.cli import PRESETS, main, run_config
from crossfourier.config import ConfigError


def base_config(tmp_path, experiment, system=None, seed=5):
    return {
        "seed": seed,
        "system": system
        or {
            "algebra": [1],
            "group": {"family": "finite-cyclic", "n": 12},
            "action": {"kind": "trivial"},
            "cocycle": {"kind": "theta", "theta": "1/12"},
        },
        "experiment": experiment,
        "output": {"json": str(tmp_path / "report.json"), "csv": str(tmp_path / "trace.csv")},
    }


def subprocess_env(**extra):
    """The current environment with the package source first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(tmp_path, config, extra=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["run", str(path), *extra])


def test_validate_experiment_passes(tmp_path):
    config = base_config(tmp_path, {"tag": "validate"})
    code, report = run_config(config)
    assert code == 0
    assert report["passed"]


def test_arithmetic_suite(tmp_path):
    config = base_config(tmp_path, {"tag": "arithmetic-suite", "n_triples": 30})
    code, report = run_config(config)
    assert code == 0
    assert report["results"]["max_violations"]["associativity"] < 1e-10


def test_unknown_tag_is_config_error(tmp_path):
    config = base_config(tmp_path, {"tag": "nonsense"})
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_config(config)
    assert run_cli(tmp_path, config) == 1


def test_missing_seed_is_config_error(tmp_path):
    config = base_config(tmp_path, {"tag": "validate"})
    del config["seed"]
    assert run_cli(tmp_path, config) == 1


def test_bad_group_family_is_config_error(tmp_path):
    config = base_config(
        tmp_path, {"tag": "validate"},
        system={"algebra": [1], "group": {"family": "simple-sporadic"}},
    )
    assert run_cli(tmp_path, config) == 1


def test_perturbed_cocycle_validate_exits_two(tmp_path):
    # theta not compatible with the cyclic order: rejected as config error
    config = base_config(
        tmp_path, {"tag": "validate"},
        system={
            "algebra": [1],
            "group": {"family": "finite-cyclic", "n": 12},
            "cocycle": {"kind": "theta", "theta": "1/5"},
        },
    )
    assert run_cli(tmp_path, config) == 1
    # a table cocycle violating normalization: invariant violation, exit 2
    bad_entries = [{"g": "1", "h": "0", "blocks": [[0.0, 1.0]]}]  # sigma(1, e) = i != 1
    config = base_config(
        tmp_path, {"tag": "validate"},
        system={
            "algebra": [1],
            "group": {"family": "finite-cyclic", "n": 2},
            "cocycle": {"kind": "table", "entries": bad_entries},
        },
    )
    assert run_cli(tmp_path, config) == 2


def test_fejer_experiment_writes_report_and_csv(tmp_path):
    config = base_config(
        tmp_path,
        {
            "tag": "fejer",
            "indices": [2, 4, 8, 16],
            "element": {"points": [{"g": "0"}, {"g": "3"}]},
            "target_error": 0.5,
        },
        system={
            "algebra": [1],
            "group": {"family": "Zd", "d": 1},
            "cocycle": {"kind": "trivial"},
        },
    )
    assert run_cli(tmp_path, config) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    rows = report["results"]["convergence"]["rows"]
    assert len(rows) == 4
    errs = [r["l1_error"] for r in rows]
    assert errs == sorted(errs, reverse=True)
    csv_text = (tmp_path / "trace.csv").read_text().splitlines()
    assert csv_text[0].startswith("index,l1_error")
    assert len(csv_text) == 5


def test_abel_poisson_experiment(tmp_path):
    config = base_config(
        tmp_path,
        {
            "tag": "abel-poisson",
            "length": "one-norm",
            "r_schedule": [0.5, 0.9],
            "element": {"points": [{"g": "(0,0)"}, {"g": "(1,1)"}]},
            "target_error": 0.5,
            "pd_radius": 3,
        },
        system={
            "algebra": [1],
            "group": {"family": "Zd", "d": 2},
            "cocycle": {"kind": "theta", "theta": "1/5"},
        },
    )
    assert run_cli(tmp_path, config) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(row["pd"] for row in report["results"]["pd_checks"])


def test_psl_preset_experiment(tmp_path):
    config = dict(PRESETS["psl"])
    config["output"] = {"json": str(tmp_path / "psl.json")}
    code, report = run_config(config)
    assert code == 0
    res = report["results"]
    assert res["ideal_count"] == 4
    assert res["split"]["passed"]
    assert max(res["split"]["projection_residuals"].values()) <= 1e-10


def test_determinism_byte_identical_reports(tmp_path):
    config = base_config(tmp_path, {"tag": "arithmetic-suite", "n_triples": 20})
    _, r1 = run_config(config)
    _, r2 = run_config(config)
    from crossfourier.cli import canonical_json

    strip = lambda rep: canonical_json({k: v for k, v in rep.items() if k != "timestamp"})
    assert strip(r1) == strip(r2)


def test_seed_override_changes_payload(tmp_path):
    config = base_config(
        tmp_path,
        {"tag": "norms", "element": {"random": {"radius": 1, "count": 2}}},
    )
    _, r1 = run_config(config)
    _, r2 = run_config(config, seed_override=99)
    assert r1["results"]["l1"] != r2["results"]["l1"]
    assert r2["seed"] == 99


def test_presets_cli(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "psl" in out
    assert main(["presets", "show", "psl"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["experiment"]["tag"] == "psl-preset"


def test_console_entry_point(tmp_path):
    config = base_config(tmp_path, {"tag": "validate"})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "crossfourier.cli", "run", str(path)],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert '"passed": true' in proc.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_crossfourier_threads_caps_blas_at_import():
    env = subprocess_env(CROSSFOURIER_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    code = (
        "import os, crossfourier, numpy as np\n"
        "a = np.ones((256, 256)); a @ a\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 1


def test_commutative_inequality_experiment(tmp_path):
    config = base_config(
        tmp_path,
        {"tag": "commutative-inequality", "n_samples": 25},
        system={
            "algebra": [1, 1, 1],
            "group": {"family": "Zd", "d": 1},
            "cocycle": {"kind": "theta", "theta": 0.37},
        },
    )
    code, report = run_config(config)
    assert code == 0
    assert report["results"]["min_residual"] >= -1e-12


def test_content_probe_experiment(tmp_path):
    config = base_config(
        tmp_path,
        {"tag": "content-probe", "subset": ["e", "a", "b"], "sample_budget": 15},
        system={"algebra": [1], "group": {"family": "free-F2"}},
    )
    code, report = run_config(config)
    assert code == 0
    res = report["results"]
    assert res["lower"] <= res["upper_scalar"] + 1e-9


def test_decay_probe_experiment(tmp_path):
    config = base_config(
        tmp_path,
        {
            "tag": "decay-probe",
            "weight": {"tag": "power", "param": 1.0, "length": "one-norm"},
            "radius": 2,
            "sample_budget": 10,
        },
        system={"algebra": [1], "group": {"family": "Zd", "d": 1},
                "cocycle": {"kind": "theta", "theta": 0.3}},
    )
    code, report = run_config(config)
    assert code == 0
    assert report["results"]["constant_lower"] >= 1.0 - 1e-9


def test_ideals_experiment(tmp_path):
    config = base_config(
        tmp_path,
        {"tag": "ideals", "e_invariance": {"blocks": [0]}, "sample_budget": 20},
        system={"algebra": [1, 1], "group": {"family": "finite-cyclic", "n": 4}},
    )
    code, report = run_config(config)
    assert code == 0
    assert report["results"]["count"] == 4
    assert report["results"]["e_invariance"]["passed"]


def test_approx_net_with_configured_rep(tmp_path):
    config = base_config(
        tmp_path,
        {
            "tag": "approx-net",
            "data": "delta",
            "rep": {
                "rank": 2,
                "rho": "left-multiplication",
                "v": {
                    "kind": "alpha-tensor-unitary",
                    # generator image diag(w, w^-1), w = e^{2 pi i/12}, interleaved wire
                    "generator_unitaries": [[
                        0.8660254037844387, 0.5, 0.0, 0.0,
                        0.0, 0.0, 0.8660254037844387, -0.5,
                    ]],
                },
            },
            "target_error": 2.0,
        },
    )
    code, report = run_config(config)
    assert code == 0
    assert report["results"]["rep_validation"]["passed"]


def test_endomorphism_rep_from_config(tmp_path):
    config = base_config(
        tmp_path,
        {
            "tag": "approx-net",
            "data": "delta",
            "rep": {"rank": 1, "rho": {"kind": "endomorphism-composed", "point_map": [0, 0]}, "v": "alpha"},
            "target_error": 2.0,
        },
        system={"algebra": [1, 1], "group": {"family": "finite-cyclic", "n": 4}},
    )
    code, report = run_config(config)
    assert code == 0


def test_norms_compression_dump(tmp_path):
    config = base_config(
        tmp_path,
        {"tag": "norms", "element": {"points": [{"g": "0"}, {"g": "1"}]}, "dump_compression": 11},
    )
    code, report = run_config(config)
    assert code == 0
    comp = report["results"]["compression"]
    assert len(comp["index"]) == 12
    assert len(comp["matrix"]) == 12
    assert comp["matrix"][0][0] == [1.0, 0.0]


def test_permutation_action_from_config(tmp_path):
    config = base_config(
        tmp_path, {"tag": "validate"},
        system={
            "algebra": [1, 1],
            "group": {"family": "finite-cyclic", "n": 2},
            "action": {"kind": "permutation-of-points", "generator_permutations": [[1, 0]]},
        },
    )
    code, report = run_config(config)
    assert code == 0
