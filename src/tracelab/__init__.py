"""Numerical laboratory for concavity/convexity of matrix trace and norm functionals."""

__version__ = "0.1.0"

from .linalg import (
    PosDef,
    SamplerConfig,
    hermitize,
    loewner_leq,
    matrix_function,
    matrix_power,
    sample_posdef,
    sample_unitary,
)
from .norms import NormSpec
from .means import MeanSpec, eval_mean, power_mean
from .posmaps import (
    MapSpec,
    apply_map,
    conjugation,
    hat_map,
    identity_map,
    is_strictly_positive,
    kraus_map,
    pinching,
    sample_kraus,
    transpose_then_kraus,
)
from .families import (
    FamilySpec,
    ParameterPoint,
    eval_family,
    variational_min,
    variational_value,
)
from .regions import region_member, region_violation, THEOREM_IDS
from .lab import (
    Certificate,
    TestReport,
    hunt_counterexample,
    loewner_midpoint_test,
    midpoint_test,
    replay_certificate,
    sweep,
)
