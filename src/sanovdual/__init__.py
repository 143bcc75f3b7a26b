"""Dual pairs of penalty functionals and risk measures on finite spaces."""

from .spaces import Dist
from .penalties import RelativeEntropy, penalty
from .risk import risk_rows

__version__ = "0.1.0"
