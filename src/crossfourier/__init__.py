"""Desk-scale Fourier analysis in reduced twisted C*-crossed products.

The toolkit builds twisted C*-dynamical systems (A, G, action, cocycle) over
concrete discrete groups and finite-dimensional coefficient algebras, does
exact twisted-convolution arithmetic, estimates operator norms through
compressed regular representations, and runs the multiplier / summation /
ideal-structure machinery on top.

Set CROSSFOURIER_THREADS to cap the BLAS thread pools.  It is read here,
before the first numpy import, and fills in OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS where they are unset.
"""

import os as _os

if _os.environ.get("CROSSFOURIER_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["CROSSFOURIER_THREADS"])

from .groups import (
    Cyclic,
    Dihedral,
    DirectProduct,
    FreeF2,
    FreeProductZ2Z3,
    Zd,
    LengthFunction,
    ball,
    ball_size,
    block_length,
    default_length,
    folner_sequence,
    one_norm,
    squared_two_norm,
    two_norm,
    word_length,
)
from .algebra import (
    AlgAutomorphism,
    AlgElement,
    BlockAlgebra,
    PointMap,
    PointState,
    VectorState,
    classify,
    pure_states,
    state_norm,
)
from .system import (
    CentralExtension,
    TwistedSystem,
    generator_action,
    section_cocycle_system,
    sl2z_extension,
    sl2z_system,
    theta_system,
    trivial_system,
    validate_system,
)
from .crossed import (
    CcElement,
    CompressedRep,
    cc_unit,
    compression_matrix,
    delta,
    exact_norm_finite,
    opnorm_bounds,
    random_cc,
)
from .modules import (
    EquivariantRep,
    ModuleOperator,
    ModuleVector,
    central_part,
    endomorphism_rep,
    trivial_rep,
    unitary_tensor_rep,
    validate_equivariant,
)
from .multipliers import (
    Multiplier,
    apply_multiplier,
    expectation_multiplier,
    identity_multiplier,
    left_multiplier,
    make_endo_multiplier,
    make_gilbert_multiplier,
    make_matrix_coeff_multiplier,
    multiplier_norm_probe,
    pd_check,
    right_multiplier,
    scalar_multiplier,
)
from .summation import (
    ConvergenceReport,
    SummingNet,
    abel_poisson_net,
    approx_data_net,
    fejer_net,
    folner_approx_data,
    run_convergence,
    truncation_radius,
)
from .decay import (
    Weight,
    commutative_inequality_check,
    content_probe,
    decay_constant_probe,
    inv_l2_bracket,
    make_weight,
    regular_apply,
    tail_profile,
    twisted_inequality_experiment,
)
from .ideals import (
    InvariantIdeal,
    central_projection_split,
    e_invariance_probe,
    enumerate_invariant_ideals,
    ideal_membership,
    orbit_closure,
    quotient_system,
)

__version__ = "0.1.0"
