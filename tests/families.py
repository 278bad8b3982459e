"""Twisted systems over every group family, shared by the randomized and oracle tests.

The system over a family is exterior equivalent to a plain one: a base
action (a block swap where the group's relations allow it) and a base
cocycle (theta where one is shipped), perturbed by the coboundary of
unitaries w_g, so the action is inner and the cocycle is not central.
"""

import zlib

import numpy as np

from crossfourier.algebra import AlgAutomorphism, BlockAlgebra
from crossfourier.groups import Cyclic, Dihedral, DirectProduct, FreeF2, FreeProductZ2Z3, Zd
from crossfourier.system import TwistedSystem, generator_action, theta_cocycle, trivial_cocycle

# family -> (group, theta or None, which generators may act by a block swap)
FAMILIES = {
    "cyclic": (Cyclic(6), "1/6", [True]),
    "dihedral": (Dihedral(4), None, [True, False]),
    "product-of-finite": (DirectProduct([Cyclic(2), Cyclic(3)]), None, [True, False]),
    "Zd": (Zd(2), "1/5", [True, True]),
    "free-F2": (FreeF2(), None, [True, True]),
    "free-product-Z2-Z3": (FreeProductZ2Z3(), None, [True, False]),
}
DIMS = [(1,), (1, 1), (2, 1), (3,)]


def _unitary(A: BlockAlgebra, group, g):
    """w_g: a unitary drawn from a seed fixed by g alone, and w_e = 1."""
    if g == group.identity():
        return A.unit()
    return A.random_unitary(np.random.default_rng(zlib.crc32(group.word(g).encode())))


def make_system(family: str, dims: tuple) -> TwistedSystem:
    """(Ad(w_g) action(g), w_g action(g)(w_h) cocycle(g, h) w_gh^*) over the base system."""
    group, theta, may_swap = FAMILIES[family]
    A = BlockAlgebra(dims)
    swap = AlgAutomorphism.block_permutation(A, [1, 0]) if dims == (1, 1) else AlgAutomorphism.identity(A)
    images = [swap if ok else AlgAutomorphism.identity(A) for ok in may_swap]
    base_action = generator_action(group, A, images)
    base_cocycle = theta_cocycle(group, A, theta) if theta else trivial_cocycle(A)
    # g -> w_g, base_action(g) and action(g), each formed once: the loop oracles
    # evaluate the action and the cocycle per pair, and the rules are pure
    unitaries, base_actions, actions = {}, {}, {}

    def unitary(g):
        if g not in unitaries:
            unitaries[g] = _unitary(A, group, g)
        return unitaries[g]

    def base(g):
        if g not in base_actions:
            base_actions[g] = base_action(g)
        return base_actions[g]

    def action(g):
        if g not in actions:
            actions[g] = AlgAutomorphism.conjugation(A, unitary(g).blocks).compose(base(g))
        return actions[g]

    def cocycle(g, h):
        w = unitary(g) * base(g)(unitary(h)) * base_cocycle(g, h)
        return w * unitary(group.mul(g, h)).star()

    return TwistedSystem(A, group, action, cocycle, tag=f"perturbed-{family}")


_SYSTEMS: dict = {}


def system_for(family, dims):
    key = (family, dims)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = make_system(family, dims)
    return _SYSTEMS[key]


def rotation_system():
    """Z acting on M2 + C by powers of a rotation conjugation, untwisted."""
    A = BlockAlgebra([2, 1])
    phi = np.pi / 7
    u = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    theta = AlgAutomorphism.conjugation(A, [u, np.eye(1)])
    Z = Zd(1)
    return TwistedSystem(A, Z, generator_action(Z, A, [theta]), lambda g, h: A.unit(), tag="rotation")
