"""Frequency-domain simulator for continuous-variable quantum teleportation.

Builds broadband EPR resources from parametric-amplifier transfer
functions, propagates quadratures through teleportation and entanglement
swapping with gain, loss, and detector inefficiency, and evaluates the
classical-vs-quantum criteria (variance limits, conditional variance and
transfer coefficients, coherent-state fidelity) as exact frequency spectra.
Everything analytic is cross-checked by a Gaussian covariance simulator
and a Monte-Carlo sampler.
"""

from . import criteria, epr, linmode, oracle, swap, teleport

# Each layer's __all__ is its public API, and the package root exports
# them all.  The list is built before the star imports, because the one
# from .teleport rebinds the name teleport from the module to the function.
__all__ = [
    name for layer in (epr, teleport, swap, criteria, linmode, oracle) for name in layer.__all__
]

from .criteria import *  # noqa: E402, F403
from .epr import *  # noqa: E402, F403
from .linmode import *  # noqa: E402, F403
from .oracle import *  # noqa: E402, F403
from .swap import *  # noqa: E402, F403
from .teleport import *  # noqa: E402, F403

__version__ = "0.1.0"
