"""Tail exponent estimation for power-law-like samples on bounded domains.

The package exports the ``__all__`` of each of its modules estimator,
experiments and sampler.
"""

from . import estimator, experiments, sampler
from .estimator import *  # noqa: F403
from .experiments import *  # noqa: F403
from .sampler import *  # noqa: F403

__version__ = "0.1.0"

__all__ = estimator.__all__ + experiments.__all__ + sampler.__all__
