"""Reliability analytics for long-horizon tool-using agents.

Parses episode trajectory logs, computes duration-bucketed reliability
metrics (pass@1, pass^k, RDC, RDS, VAF, GDS), detects entropy-based
meltdown onsets (MOP), replays harness guards, and generates synthetic
corpora with known statistical properties for estimator validation.

Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

from . import meltdown, metrics, report, rng, simulate, trajectory
from .meltdown import *
from .metrics import *
from .report import *
from .rng import *
from .simulate import *
from .trajectory import *

__version__ = "0.1.0"

__all__ = []
__all__ += meltdown.__all__
__all__ += metrics.__all__
__all__ += report.__all__
__all__ += rng.__all__
__all__ += simulate.__all__
__all__ += trajectory.__all__
