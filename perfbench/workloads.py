"""The benchmark's three workloads: inputs from a seed, tasks, output checks.

Each workload is a closed loop driven by one client: the next task starts
when the previous one has returned.  Tasks come in fixed cycles, and a timed
run always ends on a cycle boundary, so every run executes the same task mix
whatever its length; the seed changes only the random inputs and the order
inside a cycle.

A task is ``(label, run, check)``.  ``run`` is the timed call into the
program; it looks entry points up on their modules (``cli.run_config``) so
that the tracer's wrappers see the call.  Input generation happens before it and ``check(result)`` after it,
both outside the timed region.  ``check`` returns ``(ok, note)``.

This module imports ``crossfourier`` and numpy, so it is only imported by
``child.py`` after the BLAS thread variables are set.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from crossfourier import (
    AlgAutomorphism,
    BlockAlgebra,
    CcElement,
    Cyclic,
    FreeF2,
    TwistedSystem,
    Zd,
    ball,
    default_length,
    exact_norm_finite,
    generator_action,
    sl2z_system,
    theta_system,
    trivial_system,
)
from crossfourier import cli, crossed
from crossfourier.crossed import full_radius

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
TOL = REFERENCE["tolerances"]


def rotation_system() -> TwistedSystem:
    """Z acting on M2 + C through powers of a rotation by pi/7, untwisted."""
    A = BlockAlgebra([2, 1])
    phi = np.pi / 7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    theta = AlgAutomorphism.conjugation(A, [u, np.eye(1)])
    Z = Zd(1)
    return TwistedSystem(A, Z, generator_action(Z, A, [theta]), lambda g, h: A.unit(), tag="rotation")


def _random_blocks(algebra, rng):
    """Raw coefficient blocks, distributed as ``BlockAlgebra.random_element``."""
    return [
        (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2 * d)
        for d in algebra.dims
    ]


def _random_raw(system, pool, size, rng):
    """Support points and raw blocks of one random element (plain data)."""
    idx = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
    return [(pool[i], _random_blocks(system.algebra, rng)) for i in idx]


def _element(system, raw) -> CcElement:
    return CcElement(system, {g: system.algebra.element(blocks) for g, blocks in raw})


# -- arith ------------------------------------------------------------------------


def ring_axiom_violations(system, raws) -> dict:
    """l1 norms of the five ring-axiom defects on one triple (f1, f2, f3)."""
    f1, f2, f3 = (_element(system, raw) for raw in raws)
    return {
        "associativity": (((f1 * f2) * f3) - (f1 * (f2 * f3))).norm_l1(),
        "left_distributivity": ((f1 * (f2 + f3)) - (f1 * f2 + f1 * f3)).norm_l1(),
        "right_distributivity": (((f1 + f2) * f3) - (f1 * f3 + f2 * f3)).norm_l1(),
        "star_antihomomorphism": ((f1 * f2).star() - f2.star() * f1.star()).norm_l1(),
        "star_involution": (f1.star().star() - f1).norm_l1(),
    }


# Support sizes of one cycle's triples on each system; all three elements of
# a triple have the same size.  A fixed size design keeps every cycle's cost
# distribution, and so the tail percentile, the same for every seed.
ARITH_SIZES = range(3, 10)


class Arith:
    """Ring axioms on random triples over four systems whose caches stay warm."""

    tail_pct = 95.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.systems = {
            "Z-M2+C": rotation_system(),
            "Z2-theta-1/5": theta_system(Zd(2), "1/5"),
            "Z12-theta-1/12": theta_system(Cyclic(12), "1/12"),
            "Z2*Z3-section": sl2z_system(),
        }
        self.pools = {k: ball(2, default_length(s.group)) for k, s in self.systems.items()}
        self.cycle_len = len(self.systems) * len(ARITH_SIZES)

    def cycle(self):
        names = list(self.systems)
        for k in self.rng.permutation(self.cycle_len):
            name, size = names[k // len(ARITH_SIZES)], ARITH_SIZES[k % len(ARITH_SIZES)]
            system, pool = self.systems[name], self.pools[name]
            raws = [_random_raw(system, pool, size, self.rng) for _ in range(3)]
            yield (
                f"arith/{name}/{size}",
                lambda system=system, raws=raws: ring_axiom_violations(system, raws),
                self._check,
            )

    @staticmethod
    def _check(violations):
        worst = max(violations, key=violations.get)
        if violations[worst] <= TOL["ring_axiom"]:
            return True, ""
        return False, f"{worst} violation {violations[worst]:.3e}"


# -- norms --------------------------------------------------------------------------

# (label, system factory, radius or None for the full radius of a finite
# group, element kind).  Matrix dimensions fall on both sides of the 600
# dense/Lanczos cutoff; F2 at R=7 is the largest dense compression,
# 4373^2 complex entries = 0.306 GB.  The cycle length is odd, so the
# median and the 75th percentile fall inside one spec's repeats instead of
# on the boundary between two specs of very different cost.
NORM_SPECS = [
    ("Z-path-R120", lambda: trivial_system(BlockAlgebra([1]), Zd(1)), 120, "path"),
    ("Z-path-R1000", lambda: trivial_system(BlockAlgebra([1]), Zd(1)), 1000, "path"),
    ("Z2-theta-R10", lambda: theta_system(Zd(2), "1/5"), 10, "random"),
    ("Z2-theta-R24", lambda: theta_system(Zd(2), "1/5"), 24, "random"),
    ("F2-R4", lambda: trivial_system(BlockAlgebra([1]), FreeF2()), 4, "random"),
    ("F2-R5", lambda: trivial_system(BlockAlgebra([1]), FreeF2()), 5, "random"),
    ("F2-R7", lambda: trivial_system(BlockAlgebra([1]), FreeF2()), 7, "random"),
    ("Z2*Z3-section-R8", sl2z_system, 8, "random"),
    ("Z2*Z3-section-R11", sl2z_system, 11, "random"),
    ("Z-M2+C-R20", rotation_system, 20, "random"),
    ("Z-M2+C-R100", rotation_system, 100, "random"),
    ("Z12-theta-full", lambda: theta_system(Cyclic(12), "1/12"), None, "finite"),
    ("Z6-M2+C-full", lambda: trivial_system(BlockAlgebra([2, 1]), Cyclic(6)), None, "finite"),
]
NORM_SUPPORT = 6


class Norms:
    """One opnorm_bounds call per task, each on a freshly built system."""

    tail_pct = 75.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.cycle_len = len(NORM_SPECS)
        self.gaps: list = []

    def cycle(self):
        for k in self.rng.permutation(len(NORM_SPECS)):
            label, make, R, kind = NORM_SPECS[k]
            system = make()
            if kind == "path":
                e = system.algebra.unit()
                f = CcElement(system, {(1,): e, (-1,): e})
            else:
                pool = ball(2, default_length(system.group))
                f = _element(system, _random_raw(system, pool, NORM_SUPPORT, self.rng))
            if kind == "finite":
                R = full_radius(system)
            yield (
                f"norms/{label}",
                lambda f=f, R=R: crossed.opnorm_bounds(f, [R]),
                lambda b, f=f, R=R, kind=kind: self._check(b, f, R, kind),
            )

    def _check(self, bounds, f, R, kind):
        self.gaps.append(bounds.upper / bounds.lower)
        if not bounds.lower <= bounds.upper + TOL["sandwich"]:
            return False, f"lower {bounds.lower!r} > upper {bounds.upper!r}"
        if kind == "path":
            want = 2 * math.cos(math.pi / (2 * R + 2))
            if abs(bounds.lower - want) > TOL["path_graph"]:
                return False, f"path graph lower {bounds.lower!r} != {want!r}"
        if kind == "finite":
            want = exact_norm_finite(f)
            if abs(bounds.lower - want) > TOL["finite_exact"] * max(1.0, want):
                return False, f"full-radius lower {bounds.lower!r} != exact {want!r}"
        return True, ""


# -- experiments ------------------------------------------------------------------------

_Z2_TORUS = {
    "algebra": [1],
    "group": {"family": "Zd", "d": 2},
    "action": {"kind": "trivial"},
    "cocycle": {"kind": "theta", "theta": "1/5"},
}
_Z12 = {
    "algebra": [1],
    "group": {"family": "finite-cyclic", "n": 12},
    "action": {"kind": "trivial"},
    "cocycle": {"kind": "theta", "theta": "1/12"},
}

# Fixed configs with fixed seeds, so every report has a stored digest.  Sizes
# are chosen so that, sorted by cost, the configs around the median
# (commutative-inequality, approx-net, decay-probe, psl) step up by about 1.3-1.5x
# each.  On a shared CPU a task runs either at full speed or up to ~1.5x
# slower; with evenly staggered costs the median moves with the share of slow
# time, like the mean, instead of jumping between the fast and slow copies of
# one config.
EXPERIMENT_CONFIGS = {
    "psl": cli.PRESETS["psl"],
    "nc-torus-fejer": cli.PRESETS["nc-torus-fejer"],
    "z12-arithmetic": cli.PRESETS["z12-arithmetic"],
    "validate-z32": {
        "seed": 5,
        "system": {
            "algebra": [1],
            "group": {"family": "finite-cyclic", "n": 32},
            "cocycle": {"kind": "theta", "theta": "1/32"},
        },
        "experiment": {"tag": "validate"},
    },
    "content-probe-z2": {
        "seed": 5,
        "system": _Z2_TORUS,
        "experiment": {
            "tag": "content-probe",
            "subset": ["(0,0)", "(1,0)", "(0,1)", "(1,1)"],
            "sample_budget": 40,
        },
    },
    "decay-probe-f2": {
        "seed": 5,
        "system": {"algebra": [1], "group": {"family": "free-F2"}},
        "experiment": {
            "tag": "decay-probe",
            "weight": {"tag": "power", "param": 2.0, "length": "word"},
            "radius": 2,
            "sample_budget": 12,
        },
    },
    "abel-poisson": {
        "seed": 5,
        "system": _Z2_TORUS,
        "experiment": {
            "tag": "abel-poisson",
            "length": "one-norm",
            "r_schedule": [0.5, 0.9],
            "element": {"points": [{"g": "(0,0)"}, {"g": "(1,1)"}]},
            "target_error": 0.5,
            "pd_radius": 3,
        },
    },
    "approx-net": {
        "seed": 5,
        "system": _Z12,
        "experiment": {
            "tag": "approx-net",
            "data": "delta",
            "rep": {
                "rank": 2,
                "rho": "left-multiplication",
                "v": {
                    "kind": "alpha-tensor-unitary",
                    # generator image diag(w, w^-1), w = e^{2 pi i/12}
                    "generator_unitaries": [[
                        0.8660254037844387, 0.5, 0.0, 0.0,
                        0.0, 0.0, 0.8660254037844387, -0.5,
                    ]],
                },
            },
            "target_error": 2.0,
        },
    },
    "commutative-inequality": {
        "seed": 5,
        "system": {
            "algebra": [1, 1, 1],
            "group": {"family": "Zd", "d": 1},
            "cocycle": {"kind": "theta", "theta": 0.37},
        },
        "experiment": {"tag": "commutative-inequality", "n_samples": 30},
    },
    "norms-z2z3": {
        "seed": 5,
        "system": {
            "algebra": [1, 1],
            "group": {"family": "free-product-Z2-Z3"},
            "action": {"kind": "trivial"},
            "cocycle": {"kind": "section", "preset": "sl2z"},
        },
        "experiment": {
            "tag": "norms",
            "element": {"random": {"radius": 2, "count": 4}},
            "radii": [3, 6],
        },
    },
    "ideals": {
        "seed": 5,
        "system": {"algebra": [1, 1], "group": {"family": "finite-cyclic", "n": 4}},
        "experiment": {"tag": "ideals", "e_invariance": {"blocks": [0]}, "sample_budget": 20},
    },
}


def report_digest(report: dict) -> str:
    """sha256 of the canonical report bytes with the timestamp removed."""
    body = {k: v for k, v in report.items() if k != "timestamp"}
    return hashlib.sha256(cli.canonical_json(body).encode()).hexdigest()


class Experiments:
    """One in-process cli.run_config call per task from a fixed config mix."""

    tail_pct = 75.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.configs = json.loads(json.dumps(EXPERIMENT_CONFIGS))
        self.names = sorted(self.configs)
        self.cycle_len = len(self.names)
        self.digest_mismatch: set = set()

    def cycle(self):
        for k in self.rng.permutation(len(self.names)):
            name = self.names[k]
            yield (
                f"experiments/{name}",
                lambda config=self.configs[name]: cli.run_config(config),
                lambda out, name=name: self._check(name, out),
            )

    def _check(self, name, out):
        code, report = out
        if report_digest(report) != REFERENCE["report_sha256"][name]:
            self.digest_mismatch.add(name)
        if code != 0 or report.get("passed") is not True:
            return False, f"exit code {code}, passed={report.get('passed')!r}"
        return True, ""


WORKLOADS = {"arith": Arith, "norms": Norms, "experiments": Experiments}
