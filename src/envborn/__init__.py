"""envborn: finite-dimensional quantum states with an audited probability pipeline.

The library builds nondemolition premeasurement couplings from observables and
pointer apparatuses, derives outcome probabilities through branch Schmidt
decompositions plus envariance-based probability assignment, and audits every
step against the trace rule.  Mixture equivalences, ensemble sampling, and a
scenario-driven CLI round out the toolkit.
"""

from .hilbert import (
    DEFAULT_TOL,
    NORM_TOL,
    Audit,
    DensityOperator,
    Observable,
    Operator,
    StateVector,
    basis_state,
    complete_observable,
    identity,
    make_state,
    orthonormalize,
    pure_density,
    trace_probability,
)
from .schmidt import (
    ZERO_BRANCH_THRESHOLD,
    BipartiteState,
    SchmidtForm,
    check_envariance,
    reconstruct,
    schmidt_decompose,
    schmidt_decompose_cores,
    schmidt_probabilities,
    sublemma_check,
    swap_witness,
    twin_unitary,
)
from .premeasurement import (
    Branch,
    PointerApparatus,
    PremeasurementModel,
    branch_norm_law,
    branches,
    build_premeasurement,
    evolve,
    verify_calibration,
    verify_nondemolition,
)
from .born import (
    OutcomeRecord,
    ProbabilityReport,
    check_additivity,
    complement_check,
    derive_probabilities,
)
from .mixtures import (
    MixtureSpec,
    improper_probability,
    mix,
    proper_improper_equivalence,
    proper_probability,
    purify,
)
from .ensemble import (
    FrequencyReport,
    SampleRun,
    frequency_check,
    sample_outcomes,
)

__version__ = "0.1.0"
