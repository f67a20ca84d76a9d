"""Combinatorial invariants of the duals of the Euclidean motion groups."""

from .constants import cross_check, predict, render_table
from .chains import (
    chain_lower_bound,
    find_admissible_chain,
    is_admissible,
    separate,
    validate_chain,
)
from .dualspace import (
    DualModel,
    FiniteT0Space,
    Point,
    build_dual_model,
    components_and_orc,
    distance,
    glimm_partition,
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
    big_d,
    merge_certificate,
    min_primal,
    star_adjacent,
    sub_ideals,
    validate_certificate,
)
from .signatures import (
    GroupContext,
    Signature,
    Walk,
    branch,
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
