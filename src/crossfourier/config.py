"""Configuration parsing: JSON blocks -> groups, algebras, systems, elements.

A config names a system by four blocks:

    "algebra": [2, 1]                          block dimensions
    "group":   {"family": "Zd", "d": 2}        or finite-cyclic / finite-dihedral /
                                               product-of-finite / free-F2 /
                                               free-product-Z2-Z3
    "action":  {"kind": "trivial"}             or permutation-of-points / table
    "cocycle": {"kind": "theta", "theta": "1/5"}  or trivial / section / table

theta accepts a rational string like "1/5" or a float.  Config errors raise
ConfigError, a missing required key among them (require names it); the CLI
maps it, and every other ValueError of the library, to exit code 1.  Every
size a config sets, here the sampling ball of a random element, is counted
in closed form and passed to crossed.check_budget before anything is built.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgAutomorphism, BlockAlgebra, PointMap
from .groups import (
    Cyclic,
    Dihedral,
    DirectProduct,
    FreeF2,
    FreeProductZ2Z3,
    Group,
    LengthFunction,
    Zd,
    ball,
    ball_size,
    block_length,
    default_length,
    one_norm,
    squared_two_norm,
    two_norm,
    word_length,
)
from .crossed import CcElement, check_budget
from .modules import endomorphism_rep, trivial_rep, unitary_tensor_rep
from .system import (
    TwistedSystem,
    generator_action,
    sl2z_system,
    theta_cocycle,
    trivial_action,
    trivial_cocycle,
)


class ConfigError(ValueError):
    pass


# Peak bytes per point of building a ball (ball_size counts the points):
# 144-199 measured on Z, Z^2 and Z^3 (one- and two-norm, 88 641 to 400 001
# points), 173 on F2.
_BALL_POINT_BYTES = 240


def require(spec, key: str, where: str):
    """spec[key], or a ConfigError saying that where needs the key."""
    try:
        return spec[key]
    except (KeyError, TypeError):
        raise ConfigError(f"{where} needs {key!r}") from None


def build_group(spec: dict) -> Group:
    try:
        family = spec["family"]
    except (KeyError, TypeError):
        raise ConfigError("group block needs a 'family' tag") from None
    if family == "finite-cyclic":
        return Cyclic(int(spec["n"]))
    if family == "finite-dihedral":
        return Dihedral(int(spec["n"]))
    if family == "product-of-finite":
        return DirectProduct([Cyclic(int(n)) for n in spec["orders"]])
    if family in ("Zd", "Z^d"):
        return Zd(int(spec["d"]))
    if family == "free-F2":
        return FreeF2()
    if family == "free-product-Z2-Z3":
        return FreeProductZ2Z3()
    raise ConfigError(f"unknown group family {family!r}")


def build_length(tag: str, group: Group) -> LengthFunction:
    if tag == "default":
        return default_length(group)
    if tag == "word":
        return word_length(group)
    if tag == "one-norm":
        return one_norm(group)
    if tag == "two-norm":
        return two_norm(group)
    if tag == "squared-two-norm":
        return squared_two_norm(group)
    if tag == "block":
        return block_length(group)
    raise ConfigError(f"unknown length tag {tag!r}")


def build_system(spec: dict) -> TwistedSystem:
    try:
        algebra = BlockAlgebra(spec["algebra"])
        group = build_group(spec["group"])
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad system block: {exc}") from None

    action_spec = spec.get("action", {"kind": "trivial"})
    cocycle_spec = spec.get("cocycle", {"kind": "trivial"})
    for name, block in (("action", action_spec), ("cocycle", cocycle_spec)):
        if not isinstance(block, dict):
            raise ConfigError(f"the {name} block must be an object with a 'kind', not {block!r}")
    kind = action_spec.get("kind", "trivial")

    if cocycle_spec.get("kind") == "section":
        preset = cocycle_spec.get("preset", "sl2z")
        if preset != "sl2z":
            raise ConfigError(f"unknown section preset {preset!r}")
        if kind != "trivial":
            raise ConfigError("section cocycles ship with the trivial action")
        return sl2z_system()

    if kind == "trivial":
        action = trivial_action(algebra)
    elif kind == "permutation-of-points":
        if not algebra.is_commutative:
            raise ConfigError("permutation-of-points actions need a commutative algebra")
        perms = action_spec.get("generator_permutations")
        if not perms:
            raise ConfigError("permutation-of-points needs 'generator_permutations'")
        images = [AlgAutomorphism.block_permutation(algebra, perm) for perm in perms]
        if len(images) != len(group.generators()):
            raise ConfigError("one permutation per group generator required")
        action = generator_action(group, algebra, images)
    elif kind == "table":
        table_spec = action_spec.get("table")
        if not group.is_finite or not table_spec:
            raise ConfigError("table actions need a finite group and a 'table'")
        if not isinstance(table_spec, dict):
            raise ConfigError(f"the action 'table' must map group words to permutations, not {table_spec!r}")
        table = {group.normal_form(word): AlgAutomorphism.block_permutation(algebra, perm)
                 for word, perm in table_spec.items()}
        missing = next((g for g in group.elements() if g not in table), None)
        if missing is not None:
            raise ConfigError(f"the action table has no entry for the group element {group.word(missing)}")
        action = table.__getitem__
    else:
        raise ConfigError(f"unknown action kind {kind!r}")

    ckind = cocycle_spec.get("kind", "trivial")
    if ckind == "trivial":
        cocycle = trivial_cocycle(algebra)
    elif ckind == "theta":
        cocycle = theta_cocycle(group, algebra, cocycle_spec.get("theta", 0.0))
    elif ckind == "table":
        entries = cocycle_spec.get("entries")
        if not group.is_finite or not entries:
            raise ConfigError("table cocycles need a finite group and 'entries'")
        table = {}
        for row in entries:
            try:
                g, h, blocks = row["g"], row["h"], row["blocks"]
            except (KeyError, TypeError):
                raise ConfigError(f"each cocycle table row needs 'g', 'h' and 'blocks', not {row!r}") from None
            table[(group.normal_form(g), group.normal_form(h))] = algebra.from_wire(blocks)
        unit = algebra.unit()

        def cocycle(g, h, table=table):
            return table.get((g, h), unit)
    else:
        raise ConfigError(f"unknown cocycle kind {ckind!r}")

    tag = f"{ckind}" if ckind != "theta" else f"theta-bicharacter({cocycle_spec.get('theta')})"
    return TwistedSystem(algebra, group, action, cocycle, tag=tag)


def build_element(system: TwistedSystem, spec, rng) -> CcElement:
    """An element from config: explicit points, or a seeded random element."""
    if spec is None:
        spec = {"random": {"radius": 1, "count": 3}}
    if "points" in spec:
        coeffs = {}
        for row in spec["points"]:
            g = system.group.normal_form(require(row, "g", "each 'points' row"))
            if "blocks" in row:
                a = system.algebra.from_wire(row["blocks"])
            elif "scalar" in row:
                re, im = row["scalar"]
                a = complex(re, im) * system.algebra.unit()
            else:
                a = system.algebra.unit()
            coeffs[g] = coeffs[g] + a if g in coeffs else a
        return CcElement(system, coeffs)
    if "random" in spec:
        rspec = spec["random"]
        if "support" in rspec:
            support = [system.group.normal_form(w) for w in rspec["support"]]
        else:
            radius, length = rspec.get("radius", 1), default_length(system.group)
            check_budget(_BALL_POINT_BYTES * ball_size(radius, length),
                         f"element.random.radius: the sampling ball of radius {radius}")
            pool = ball(radius, length)
            count = min(int(rspec.get("count", 3)), len(pool))
            idx = rng.choice(len(pool), size=count, replace=False)
            support = [pool[i] for i in idx]
        scale = float(rspec.get("scale", 1.0))
        return CcElement(system, {g: system.algebra.random_element(rng, scale) for g in support})
    raise ConfigError("element spec needs 'points' or 'random'")


def element_to_wire(f: CcElement) -> list:
    return [
        {"g": f.system.group.word(g), "blocks": f.system.algebra.to_wire(a)}
        for g, a in f.items()
    ]


def _unitary_from_wire(entry, rank: int):
    arr = np.asarray(entry, dtype=float)
    if arr.size != 2 * rank * rank:
        raise ConfigError(f"unitary wire needs {2 * rank * rank} floats for rank {rank}")
    return (arr[0::2] + 1j * arr[1::2]).reshape(rank, rank)


def build_rep(system: TwistedSystem, spec: dict):
    """An equivariant representation from config.

    rank: module rank n; rho: "left-multiplication" or
    {"kind": "endomorphism-composed", "point_map": [...]}; v: "alpha" or
    {"kind": "alpha-tensor-unitary", "generator_unitaries": [wire, ...]}.
    The result is validated by the caller through validate_equivariant.
    """
    rank = int(spec.get("rank", 1))
    rho_spec = spec.get("rho", "left-multiplication")
    v_spec = spec.get("v", "alpha")

    if v_spec == "alpha":
        if rho_spec == "left-multiplication":
            if rank != 1:
                raise ConfigError("v = alpha with left multiplication is the rank-1 trivial pair")
            return trivial_rep(system)
        if isinstance(rho_spec, dict) and rho_spec.get("kind") == "endomorphism-composed":
            beta = PointMap(system.algebra, require(rho_spec, "point_map", "the endomorphism-composed rho"))
            return endomorphism_rep(system, beta)
        raise ConfigError(f"unknown rho rule {rho_spec!r}")

    if isinstance(v_spec, dict) and v_spec.get("kind") == "alpha-tensor-unitary":
        if rho_spec != "left-multiplication":
            raise ConfigError("alpha-tensor-unitary ships with left multiplication")
        wires = require(v_spec, "generator_unitaries", "the alpha-tensor-unitary v")
        gens = [_unitary_from_wire(w, rank) for w in wires]
        if len(gens) != len(system.group.generators()):
            raise ConfigError("one unitary per group generator required")

        def urep(g):
            out = np.eye(rank, dtype=complex)
            for i, k in system.group.decompose(g):
                out = out @ np.linalg.matrix_power(gens[i], k)
            return out

        return unitary_tensor_rep(system, urep, rank)
    raise ConfigError(f"unknown v rule {v_spec!r}")


def compression_to_wire(comp) -> dict:
    """Dense complex compression matrix with its index order, wire format."""
    matrix = [
        [[float(z.real), float(z.imag)] for z in row]
        for row in comp.matrix
    ]
    return {
        "radius": comp.radius,
        "length": comp.length.tag,
        "index": [comp.system.group.word(g) for g in comp.index],
        "matrix": matrix,
    }
