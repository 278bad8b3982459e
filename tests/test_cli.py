import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from crossfourier import crossed, experiments
from crossfourier.cli import PRESETS, main, run_config
from crossfourier.config import ConfigError
from crossfourier.decay import CommutativeInequalityResult


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


def test_non_finite_cocycle_defect_exits_two(tmp_path):
    # sigma(1, 1) = 1e200: its square overflows, so the unitarity defect is inf
    entries = [{"g": "1", "h": "1", "blocks": [[1e200, 0.0]]}]
    config = base_config(
        tmp_path, {"tag": "validate"},
        system={
            "algebra": [1],
            "group": {"family": "finite-cyclic", "n": 2},
            "cocycle": {"kind": "table", "entries": entries},
        },
    )
    assert run_cli(tmp_path, config) == 2
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert results["passed"] is False
    assert results["unitarity_violation"] == "inf"
    assert results["witness"]["unitarity"] == "(1, 1)"
    # the prologue of any other experiment fails the same way
    config["experiment"] = {"tag": "norms", "element": {"points": [{"g": "0"}]}}
    assert run_cli(tmp_path, config) == 2


def test_non_finite_config_number_is_config_error(tmp_path, capsys):
    entries = [{"g": "1", "h": "1", "blocks": [[float("nan"), 0.0]]}]
    config = base_config(
        tmp_path, {"tag": "validate"},
        system={
            "algebra": [1],
            "group": {"family": "finite-cyclic", "n": 2},
            "cocycle": {"kind": "table", "entries": entries},
        },
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))  # writes the non-standard literal NaN
    assert main(["run", str(path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_weighted_norm_overflow_is_config_error(tmp_path, capsys):
    config = base_config(
        tmp_path,
        {
            "tag": "norms",
            "element": {"points": [{"g": "(40,40)"}]},
            "radii": [2],
            "weight": {"tag": "exponential", "param": 0.5, "length": "squared-two-norm"},
        },
        system={"algebra": [1], "group": {"family": "Zd", "d": 2}},
    )
    assert run_cli(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(40,40)" in err


def test_decay_probe_weight_overflow_is_config_error(tmp_path, capsys):
    config = base_config(
        tmp_path,
        {
            "tag": "decay-probe",
            "weight": {"tag": "exp", "param": 10, "length": "one-norm"},
            "radius": 80,
        },
        system={"algebra": [1], "group": {"family": "Zd", "d": 1}},
    )
    assert run_cli(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "overflows" in err


F2 = {"algebra": [1], "group": {"family": "free-F2"}}
Z3 = {"algebra": [1], "group": {"family": "Zd", "d": 3}}
Z10000 = {"algebra": [1], "group": {"family": "finite-cyclic", "n": 10000}}


@pytest.mark.parametrize("experiment, system", [
    ({"tag": "norms", "radii": [2, 20]}, F2),  # ball(20) of F2 has 6.97e9 points
    ({"tag": "norms", "radii": [2], "dump_compression": 20}, F2),
    ({"tag": "fejer", "indices": [2], "radii": [2000]}, Z3),
    ({"tag": "decay-probe", "radius": 20}, F2),
    ({"tag": "fejer", "indices": [2], "pd_radius": 2000}, Z3),  # a |ball|^2 Gram matrix
    ({"tag": "norms", "element": {"random": {"radius": 20}}}, F2),  # the sampling ball
    ({"tag": "fejer", "indices": [2]}, Z10000),  # a |G|^2 Gram matrix over the whole finite group
], ids=["norms", "dump", "fejer", "decay-probe", "fejer-pd-radius", "random-element-radius", "finite-pd-set"])
def test_radius_past_the_compression_budget_fails_before_building_its_ball(tmp_path, capsys, experiment, system):
    start = time.perf_counter()
    assert run_cli(tmp_path, base_config(tmp_path, experiment, system=system)) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("config error:")


def table_action_system(table):
    return {"algebra": [1, 1], "group": {"family": "finite-cyclic", "n": 2},
            "action": {"kind": "table", "table": table}}


def test_table_action_from_config(tmp_path):
    config = base_config(tmp_path, {"tag": "validate"}, system=table_action_system({"0": [0, 1], "1": [1, 0]}))
    assert run_cli(tmp_path, config) == 0


Z2_LATTICE = {"algebra": [1], "group": {"family": "Zd", "d": 2}}
CYCLIC_2 = {"algebra": [1, 1], "group": {"family": "finite-cyclic", "n": 2}}
ONES_2 = [[1.0, 0.0], [1.0, 0.0]]  # the unit of C + C on the wire


@pytest.mark.parametrize("experiment, system, message", [
    ({"tag": "validate"}, table_action_system({"1": [1, 0]}), "no entry for the group element 0"),
    ({"tag": "validate"}, table_action_system({"0": [0, 1], "1": [1, 1]}), "not a permutation"),
    ({"tag": "fejer", "indices": [0]}, Z3, "Folner index must be >= 1"),
    ({"tag": "validate"}, dict(Z2_LATTICE, cocycle={"kind": "theta", "theta": "1/0"}), "cannot parse theta '1/0'"),
    ({"tag": "norms", "element": {"points": [{"g": "(1,x)"}]}, "radii": [1]}, Z2_LATTICE, "unknown generator"),
    ({"tag": "fejer", "indices": [2]}, F2, "no Folner sequence"),
    ({"tag": "validate"}, dict(CYCLIC_2, action="trivial"), "the action block must be an object"),
    ({"tag": "validate"}, table_action_system([[0, 1], [1, 0]]), "the action 'table' must map group words"),
    ({"tag": "validate"}, dict(CYCLIC_2, cocycle={"kind": "table", "entries": [{"h": "1", "blocks": ONES_2}]}),
     "each cocycle table row needs 'g', 'h' and 'blocks'"),
    # a missing required key names the key, not a KeyError traceback
    ({"tag": "content-probe"}, None, "content-probe needs 'subset'"),
    ({"tag": "norms", "element": {"points": [{"scalar": [1, 0]}]}, "radii": [1]}, None,
     "each 'points' row needs 'g'"),
    ({"tag": "decay-probe", "weight": {"param": 1}}, None, "the weight needs 'tag'"),
    ({"tag": "norms", "element": {"points": [{"g": "0"}]}, "radii": [1], "weight": {"param": 1}}, None,
     "the weight needs 'tag'"),
    ({"tag": "ideals", "e_invariance": {"block": [0]}}, None, "e_invariance needs 'blocks'"),
    ({"tag": "approx-net", "rep": {"rho": {"kind": "endomorphism-composed"}}}, None,
     "the endomorphism-composed rho needs 'point_map'"),
    ({"tag": "approx-net", "rep": {"v": {"kind": "alpha-tensor-unitary"}}}, None,
     "the alpha-tensor-unitary v needs 'generator_unitaries'"),
], ids=["table-without-identity", "table-bad-permutation", "fejer-index-0", "theta-1-over-0", "bad-word",
        "fejer-on-F2", "action-as-a-string", "table-action-as-a-list", "cocycle-row-without-g",
        "content-probe-without-subset", "points-row-without-g", "decay-weight-without-tag", "norms-weight-without-tag",
        "e-invariance-without-blocks", "rho-without-point-map", "v-without-generator-unitaries"])
def test_rejected_input_exits_one_with_a_config_error(tmp_path, capsys, experiment, system, message):
    # every ValueError of the library leaves main as exit 1, never as a traceback
    assert run_cli(tmp_path, base_config(tmp_path, experiment, system=system)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


Z1 = {"algebra": [1], "group": {"family": "Zd", "d": 1}}


@pytest.mark.parametrize("experiment, system, key", [
    ({"tag": "norms", "element": {"points": [{"g": "0"}, {"g": "1"}]}, "radii": [2], "dump_compression": 6000},
     Z1, "dump_compression"),  # 144 M entries in the report; the sparse count fits
    ({"tag": "norms", "element": {"random": {"radius": 20}}}, F2, "element.random.radius"),
    ({"tag": "fejer", "indices": [2]}, Z10000, "system.group"),
    ({"tag": "abel-poisson", "pd_radius": 400}, Z2_LATTICE, "pd_radius"),
    ({"tag": "approx-net", "indices": [24], "radii": [2]}, Z3, "indices"),  # |F|^2 = 191 M pairs
    ({"tag": "decay-probe", "radius": 20}, F2, "radius"),
    ({"tag": "content-probe", "subset": ["a", " ".join("a" * 12)]}, F2, "subset"),
    ({"tag": "validate", "n_samples": 200_000_000}, Z2_LATTICE, "n_samples"),  # 4.47 GiB of sample indices
    # the list of its 2 * 10^8 elements, which ball(3) and a random element enumerate
    ({"tag": "validate"}, {"algebra": [1], "group": {"family": "finite-cyclic", "n": 200_000_000}}, "system.group"),
    # time linear in the count, memory not: refused by the work budget of experiments.py
    ({"tag": "commutative-inequality", "n_samples": 1_000_000_000}, Z1, "n_samples"),
    ({"tag": "psl-preset", "n_samples": 1_000_000_000}, Z1, "n_samples"),
    ({"tag": "arithmetic-suite", "n_triples": 1_000_000_000}, Z1, "n_triples"),
    ({"tag": "decay-probe", "sample_budget": 1_000_000_000}, Z1, "sample_budget"),
    ({"tag": "content-probe", "subset": ["0", "1"], "sample_budget": 1_000_000_000}, Z1, "sample_budget"),
    ({"tag": "ideals", "e_invariance": {"blocks": [0]}, "sample_budget": 1_000_000_000}, Z1, "sample_budget"),
], ids=["norms-dump", "norms-sampling-ball", "fejer-finite-pd-set", "abel-poisson-pd-radius", "approx-net-indices",
        "decay-probe-radius", "content-probe-subset", "validate-n-samples", "finite-group-order",
        "commutative-inequality-n-samples",
        "psl-preset-n-samples", "arithmetic-suite-n-triples", "decay-probe-sample-budget",
        "content-probe-sample-budget", "ideals-e-invariance-sample-budget"])
def test_a_config_past_the_budget_exits_one_naming_its_key(tmp_path, experiment, system, key):
    # a fresh process with 3 GiB of address space: the run must refuse the
    # config before it builds what the config sizes, not exhaust the memory
    # or run into the timeout, which is far above the second a refusal takes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path, experiment, system=system)))
    proc = subprocess.run([sys.executable, "-m", "crossfourier.cli", "run", str(path)], capture_output=True,
                          text=True, env=subprocess_env(), timeout=120, preexec_fn=_cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:") and key in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and "past the budget" in proc.stderr


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("experiment, key", [
    ({"tag": "validate"}, "n_samples"),
    ({"tag": "arithmetic-suite"}, "n_triples"),
    ({"tag": "commutative-inequality"}, "n_samples"),
    ({"tag": "psl-preset"}, "n_samples"),
    ({"tag": "ideals", "e_invariance": {"blocks": [0]}}, "sample_budget"),
    ({"tag": "decay-probe"}, "sample_budget"),
    ({"tag": "content-probe", "subset": ["0", "1"]}, "sample_budget"),
], ids=lambda e: e["tag"] if isinstance(e, dict) else e)
def test_sample_count_below_one_exits_one_naming_the_key(tmp_path, capsys, experiment, key, count):
    # a run that checks nothing must not report passed: true, nor fail on an inf it cannot write
    assert run_cli(tmp_path, base_config(tmp_path, dict(experiment, **{key: count}))) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("experiment, key, per_sample", [
    ({"tag": "arithmetic-suite"}, "n_triples", 4),
    ({"tag": "commutative-inequality"}, "n_samples", 3),  # one check per state of C^3
    ({"tag": "commutative-inequality", "record_twisted_experiment": True}, "n_samples", 6),
    ({"tag": "psl-preset"}, "n_samples", 1),
    ({"tag": "decay-probe"}, "sample_budget", 1),  # one compression per sample
    ({"tag": "content-probe", "subset": ["0", "1"]}, "sample_budget", 1),  # one SVD per candidate
    ({"tag": "ideals", "e_invariance": {"blocks": [0]}}, "sample_budget", 1),  # one product pair per sample
], ids=["arithmetic-suite", "commutative-inequality", "commutative-inequality-twisted", "psl-preset", "decay-probe",
        "content-probe", "ideals-e-invariance"])
def test_work_budget_takes_its_last_check_and_refuses_the_next(tmp_path, capsys, monkeypatch, experiment, key,
                                                              per_sample):
    monkeypatch.setattr(experiments, "_BUDGET_CHECKS", 6 * per_sample)
    system = {"algebra": [1, 1, 1], "group": {"family": "Zd", "d": 1}}
    assert run_cli(tmp_path, base_config(tmp_path, dict(experiment, **{key: 6}), system=system)) == 0
    assert run_cli(tmp_path, base_config(tmp_path / "past", dict(experiment, **{key: 7}), system=system)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "past the budget" in err
    assert not (tmp_path / "past").exists()


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


# 70 samples fill one chunk of 64 and part of the next
@pytest.mark.parametrize("experiment", [
    *({"tag": "arithmetic-suite", "n_triples": n} for n in (1, 7, 70)),
    *({"tag": "commutative-inequality", "n_samples": n, "record_twisted_experiment": True} for n in (1, 7, 70)),
    *({"tag": "decay-probe", "sample_budget": n} for n in (7, 70)),
    *({"tag": "ideals", "e_invariance": {"blocks": [0]}, "sample_budget": n} for n in (7, 70)),
    *({"tag": "psl-preset", "n_samples": n} for n in (7, 70)),
], ids=lambda e: f"{e['tag']}-{e.get('n_triples', e.get('n_samples', e.get('sample_budget')))}")
def test_sampling_reports_do_not_depend_on_the_chunk(tmp_path, monkeypatch, experiment):
    # each chunk's samples are drawn first and each stage formed for the whole
    # chunk in one call; chunks of one sample are the per-sample loop
    system = None
    if experiment["tag"] == "commutative-inequality":
        system = {"algebra": [1, 1, 1], "group": {"family": "Zd", "d": 1},
                  "cocycle": {"kind": "theta", "theta": 0.37}}
    config = base_config(tmp_path, experiment, system=system)
    strip = lambda rep: {k: v for k, v in rep.items() if k != "timestamp"}
    _, chunked = run_config(config)
    for chunk in (1, 3):
        monkeypatch.setattr(crossed, "_CHUNK", chunk)
        _, report = run_config(config)
        assert strip(report) == strip(chunked)


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


def test_experiment_reports_match_the_benchmark_reference():
    # the eleven benchmark configs with one BLAS thread, run in a fresh
    # process under each of two fixed string-hash seeds (F2 letters are
    # strings, so a report that came to depend on hash order would fail
    # every time): every report, timestamp aside, hashes to its digest
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, sys\n"
        "import crossfourier\n"  # caps the BLAS threads before workloads imports numpy
        f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "import workloads\n"
        "from crossfourier import cli\n"
        "out = {}\n"
        "for name, config in workloads.EXPERIMENT_CONFIGS.items():\n"
        "    exit_code, report = cli.run_config(json.loads(json.dumps(config)))\n"
        "    out[name] = [exit_code, workloads.report_digest(report)]\n"
        "print(json.dumps(out))\n"
    )
    reference = json.loads((root / "perfbench" / "reference.json").read_text())["report_sha256"]
    assert len(reference) == 11
    for hash_seed in ("0", "12345"):
        env = subprocess_env(CROSSFOURIER_THREADS="1", PYTHONHASHSEED=hash_seed)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, (hash_seed, proc.stderr)
        assert json.loads(proc.stdout) == {name: [0, digest] for name, digest in reference.items()}, hash_seed


def test_the_benchmark_tracer_instruments_a_traced_run(tmp_path):
    # perfbench/tracer.py wraps names of the package and reads the system's
    # tables by attribute name, so a rename breaks it; one small traced run
    # in a fresh process, on a system that applies its actions, shows it
    root = Path(__file__).resolve().parents[1]
    config = base_config(
        tmp_path, {"tag": "norms", "element": {"points": [{"g": "0"}, {"g": "1"}]}},
        system={
            "algebra": [1, 1],
            "group": {"family": "finite-cyclic", "n": 2},
            "action": {"kind": "permutation-of-points", "generator_permutations": [[1, 0]]},
        },
    )
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "from tracer import Tracer, instrument, layer_metrics\n"
        "from crossfourier import cli, crossed\n"
        "tracer = Tracer()\n"
        "instrument(tracer, crossed._DENSE_SVD_LIMIT)\n"
        "exit_code, _ = tracer.run_task(0, lambda: cli.run_config(json.loads(sys.argv[1])))\n"
        "print(json.dumps([exit_code, layer_metrics(tracer, 1)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(config)], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, layers = json.loads(proc.stdout)
    assert exit_code == 0
    assert layers["cli.run_config.calls"] == 1 and layers["crossed.compress.calls"] >= 1
    # the actions of both group elements and the trivial cocycle's one key
    assert layers["system.cache_entries"] == 3


def load_workloads():
    """perfbench/workloads.py as a module (perfbench is not a package)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmark_experiment_compression_is_at_or_below_the_dense_cutoff(monkeypatch):
    # the eleven digests above hold only while every singular value they
    # take stays on the dense SVD path
    import crossfourier.crossed as crossed

    workloads = load_workloads()
    dims = []
    original = crossed._top_singular

    def spy(rep, vectors):
        dims.append(rep.shape[0])
        return original(rep, vectors)

    monkeypatch.setattr(crossed, "_top_singular", spy)
    for config in workloads.EXPERIMENT_CONFIGS.values():
        assert run_config(json.loads(json.dumps(config)))[0] == 0
    assert dims and max(dims) <= crossed._DENSE_SVD_LIMIT


def test_lanczos_resolves_the_clustered_norms_element_without_the_dense_svd(monkeypatch):
    # the Z2-theta-R24 element of cycle 56 (from 0) of the seed-4 norms
    # workload: 1201 dimensions, top singular values 3.8038535, 3.80385349
    # and 3.80385025, which cost ARPACK 32 161 operator applications
    import crossfourier.crossed as crossed

    norms = load_workloads().Norms(4)
    for _ in range(57):
        tasks = {label: run for label, run, _ in norms.cycle()}
    f, R = tasks["norms/Z2-theta-R24"].__defaults__
    comp = crossed.compression_matrix(f, R)
    assert comp.sparse.shape == (1201, 1201)
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    value = crossed.largest_singular_value(comp)
    v = crossed._top_singular(comp, vectors=True)[1]
    assert calls == []
    assert value >= 3.8038534985138877  # the value ARPACK returned
    top = svd(comp.matrix, compute_uv=False)[0]
    assert top * (1 - 1e-12) <= value <= top * (1 + 1e-14)
    assert np.linalg.norm(comp.sparse @ v) / np.linalg.norm(v) == pytest.approx(value, rel=1e-15)


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


def test_scipy_is_loaded_only_on_the_lanczos_path():
    # the import, arithmetic, validation and a probe's dense compressions
    # load no scipy; a compression past the dense cutoff on Z (Lanczos) does
    probe = {
        "seed": 5,
        "system": {"algebra": [1], "group": {"family": "free-F2"}},
        "experiment": {"tag": "decay-probe", "weight": {"tag": "power", "param": 2.0, "length": "word"},
                       "radius": 2, "sample_budget": 3},
    }
    code = (
        "import json, sys\n"
        "import crossfourier\n"
        "from crossfourier import cli, crossed\n"
        "from crossfourier.algebra import BlockAlgebra\n"
        "from crossfourier.groups import Zd\n"
        "from crossfourier.system import trivial_system\n"
        "loaded = lambda: sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "out = [loaded()]\n"
        "for config in json.loads(sys.argv[1]):\n"
        "    assert cli.run_config(config)[0] == 0\n"
        "out.append(loaded())\n"
        "path = trivial_system(BlockAlgebra([1]), Zd(1))\n"
        "f = crossed.CcElement(path, {(1,): path.algebra.unit(), (-1,): path.algebra.unit()})\n"
        "comp = crossed.compression_matrix(f, 150)\n"
        "assert comp.shape == (301, 301) and comp.shape[0] > crossed._DENSE_SVD_LIMIT\n"
        "crossed.largest_singular_value(comp)\n"
        "out.append(loaded())\n"
        "print(json.dumps(out))\n"
    )
    configs = [PRESETS["z12-arithmetic"], probe]
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(configs)], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, after_configs, after_lanczos = json.loads(proc.stdout)
    assert after_import == [] and after_configs == []
    assert {"scipy", "scipy.linalg", "scipy.sparse"} <= set(after_lanczos)


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


def test_commutative_inequality_records_the_twisted_experiment(tmp_path, monkeypatch):
    system = {"algebra": [1, 1], "group": {"family": "Zd", "d": 1}, "cocycle": {"kind": "theta", "theta": 0.37}}
    experiment = {"tag": "commutative-inequality", "n_samples": 10}
    _, plain = run_config(base_config(tmp_path, experiment, system=system))
    config = base_config(tmp_path, dict(experiment, record_twisted_experiment=True), system=system)
    _, report = run_config(config)
    twisted = report["results"].pop("twisted_experiment")
    assert isinstance(twisted["counterexamples"], int) and set(twisted) == {"min_residual", "counterexamples"}
    # the observations draw nothing from the seed
    assert report["results"] == plain["results"]
    # and never decide the verdict: a negative twisted residual at every check still passes
    negative = CommutativeInequalityResult(-1.0, 1.0, 0.0)
    monkeypatch.setattr(experiments, "twisted_inequality_experiment", lambda *args: negative)
    code, report = run_config(config)
    n_checks = plain["results"]["n_checks"]
    assert report["results"]["twisted_experiment"] == {"min_residual": -1.0, "counterexamples": n_checks}
    assert report["results"]["min_residual"] >= -1e-12 and report["passed"] is True and code == 0


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


@pytest.mark.parametrize(
    "group, weight",
    [
        ({"family": "Zd", "d": 2}, {"tag": "exponential", "param": 0.5, "length": "squared-two-norm"}),
        ({"family": "free-product-Z2-Z3"}, {"tag": "exponential", "param": 0.838, "length": "block"}),
    ],
    ids=["z2-squared-two-norm", "z2z3-near-threshold"],
)
def test_decay_probe_bracket_edge_cases_exit_zero(tmp_path, group, weight):
    # both once raised OverflowError: kappa overflows on squared-two-norm balls, and a
    # term-by-term Z2*Z3 shell sum overflows near sqrt(2) r^2 = 1
    config = base_config(
        tmp_path,
        {"tag": "decay-probe", "weight": weight, "radius": 1, "sample_budget": 4},
        system={"algebra": [1], "group": group, "action": {"kind": "trivial"}, "cocycle": {"kind": "trivial"}},
    )
    assert run_cli(tmp_path, config) == 0
    lo, hi = json.loads((tmp_path / "report.json").read_text())["results"]["inv_l2_bracket"]
    assert 1.0 < lo <= hi


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
