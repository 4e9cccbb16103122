"""envborn: finite-dimensional quantum states with an audited probability pipeline.

The library builds nondemolition premeasurement couplings from observables and
pointer apparatuses, derives outcome probabilities through branch Schmidt
decompositions plus envariance-based probability assignment, and audits every
step against the trace rule.  Mixture equivalences, ensemble sampling, and a
scenario-driven CLI round out the toolkit.

Each module's ``__all__`` declares its public names; this package re-exports
them, and ``envborn.__all__`` is their concatenation in dependency order.
"""

from .hilbert import *
from .schmidt import *
from .premeasurement import *
from .born import *
from .mixtures import *
from .ensemble import *
from . import born, ensemble, hilbert, mixtures, premeasurement, schmidt

__all__ = [
    name
    for module in (hilbert, schmidt, premeasurement, born, mixtures, ensemble)
    for name in module.__all__
]

__version__ = "0.1.0"
