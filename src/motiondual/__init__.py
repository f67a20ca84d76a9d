"""Combinatorial invariants of the duals of the Euclidean motion groups."""

from .constants import ConstantsReport, cross_check, predict, render_table
from .chains import (
    Chain,
    chain_lower_bound,
    find_admissible_chain,
    is_admissible,
    n_neighborhood,
    separate,
    validate_chain,
    verify_property1,
)
from .dualspace import (
    DualModel,
    FiniteT0Space,
    Point,
    build_dual_model,
    components_and_orc,
    distance,
    glimm_partition,
    separated_points,
)
from .errors import (
    CertificationError,
    ContextMismatch,
    MonotonicityViolated,
    MotionDualError,
    NegativeEntry,
    PreconditionViolated,
    SignatureError,
    TheoremViolation,
    UnknownPoint,
    WrongLength,
)
from .primal import (
    MergeCertificate,
    SubIdeal,
    big_d,
    contains_ideal,
    d_star,
    hull,
    merge_certificate,
    min_primal,
    star_adjacent,
    sub_ideals,
    validate_certificate,
    zero_tail_star_step,
)
from .signatures import (
    GroupContext,
    Signature,
    Walk,
    branch,
    branch_box,
    common_extension,
    common_restriction,
    enumerate_signatures,
    inseparable,
    merge_max,
    restricts_to,
    validate,
    walk,
)
from .verification import run_sweep

__version__ = "0.1.0"
