"""Grid-tabulated densities and reproducible inverse-CDF sampling.

A density is tabulated on a uniform grid over [d_low, d_high], accumulated
into a CDF with the trapezoid rule and rescaled so the last node equals 1.
Draws map uniforms through the tabulated inverse CDF with linear
interpolation inside the bracketing grid cell.

Randomness comes from ``numpy.random.default_rng`` (PCG64).  The generator
identity is part of the package contract: the same (distribution, n, seed)
triple yields bit-identical samples on every platform and release.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .estimator import OrderedSample, full_window, mean_log

__all__ = [
    "DENSITIES",
    "DistributionSpecError",
    "DistributionSpec",
    "GridDistribution",
    "SampleRequest",
    "tabulate",
    "draw",
    "sigma_statistic",
]

class DistributionSpecError(ValueError):
    """The requested density cannot be tabulated as specified."""


@dataclass(frozen=True)
class Density:
    """A built-in density shape: its CLI name, parameter names and pdf."""

    cli_name: str
    params: tuple[str, ...]
    # (x, parameter values by name) -> unnormalized density on x
    pdf: Callable[[np.ndarray, dict[str, float]], np.ndarray]


# Every built-in density, by kind.  The CLI takes its --dist choices and its
# parameter flags from here, in this order.
DENSITIES: dict[str, Density] = {
    "power": Density("power", ("mu",), lambda x, p: x ** -p["mu"]),
    "pade14": Density(
        "pade", ("p2", "p4"),
        lambda x, p: 1.0 / (1.0 + p["p2"] * x ** 2 + p["p4"] * x ** 4)),
    "log_over_x": Density("logx", (), lambda x, p: np.log(x) / x),
    "inv_xlogx": Density("invlogx", (), lambda x, p: 1.0 / (np.log(x) * x)),
    "sqrt_inv": Density("sqrtinv", (), lambda x, p: 1.0 / np.sqrt(x)),
    "power_growth": Density("growth", ("exponent",), lambda x, p: x ** p["exponent"]),
    "two_power": Density(
        "twopower", ("a1", "mu1", "a2", "mu2"),
        lambda x, p: p["a1"] * x ** -p["mu1"] + p["a2"] * x ** -p["mu2"]),
}


@dataclass(frozen=True)
class DistributionSpec:
    """A named density shape plus its domain and grid resolution.

    Normalization of the density is irrelevant; the CDF is rescaled to 1 at
    d_high after accumulation.  ``params`` names exactly the parameters of
    ``DENSITIES[kind]``, in the same order.
    """

    kind: str
    d_low: float
    d_high: float
    grid_points: int = 10000
    params: tuple[tuple[str, float], ...] = field(default=())

    def __post_init__(self):
        if self.kind not in DENSITIES:
            raise DistributionSpecError("unknown distribution kind %r" % self.kind)
        names = tuple(name for name, _ in self.params)
        if names != DENSITIES[self.kind].params:
            raise DistributionSpecError("%s takes parameters %s, got %s" % (
                self.kind, DENSITIES[self.kind].params, names))
        if not (self.d_low < self.d_high):
            raise DistributionSpecError(
                "need d_low < d_high, got [%r, %r]" % (self.d_low, self.d_high))
        if self.d_low < 0.0:
            raise DistributionSpecError("d_low must be non-negative")
        if not (1000 <= self.grid_points <= 100000):
            raise DistributionSpecError(
                "grid_points must be in [1000, 100000], got %d" % self.grid_points)

    # -- factories ---------------------------------------------------------

    @classmethod
    def power(cls, mu: float, d_low: float, d_high: float,
              grid_points: int = 10000) -> "DistributionSpec":
        return cls("power", d_low, d_high, grid_points, (("mu", float(mu)),))

    @classmethod
    def pade14(cls, p2: float, p4: float, d_low: float, d_high: float,
               grid_points: int = 10000) -> "DistributionSpec":
        return cls("pade14", d_low, d_high, grid_points,
                   (("p2", float(p2)), ("p4", float(p4))))

    @classmethod
    def log_over_x(cls, d_low: float, d_high: float,
                   grid_points: int = 10000) -> "DistributionSpec":
        return cls("log_over_x", d_low, d_high, grid_points)

    @classmethod
    def inv_xlogx(cls, d_low: float, d_high: float,
                  grid_points: int = 10000) -> "DistributionSpec":
        return cls("inv_xlogx", d_low, d_high, grid_points)

    @classmethod
    def sqrt_inv(cls, d_low: float, d_high: float,
                 grid_points: int = 10000) -> "DistributionSpec":
        return cls("sqrt_inv", d_low, d_high, grid_points)

    @classmethod
    def power_growth(cls, exponent: float, d_low: float, d_high: float,
                     grid_points: int = 10000) -> "DistributionSpec":
        return cls("power_growth", d_low, d_high, grid_points,
                   (("exponent", float(exponent)),))

    @classmethod
    def two_power(cls, a1: float, mu1: float, a2: float, mu2: float,
                  d_low: float, d_high: float,
                  grid_points: int = 10000) -> "DistributionSpec":
        return cls("two_power", d_low, d_high, grid_points,
                   (("a1", float(a1)), ("mu1", float(mu1)),
                    ("a2", float(a2)), ("mu2", float(mu2))))

    # -- evaluation --------------------------------------------------------

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise DistributionSpecError("spec %r lacks parameter %r" % (self.kind, name))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized density on x (elementwise)."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return DENSITIES[self.kind].pdf(x, dict(self.params))

    def describe(self) -> str:
        inner = ", ".join("%s=%g" % kv for kv in self.params)
        return "%s(%s) on [%g, %g]" % (self.kind, inner, self.d_low, self.d_high)


@dataclass(frozen=True)
class GridDistribution:
    """Tabulated density and its normalized cumulative on a uniform grid."""

    xs: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray


@dataclass(frozen=True)
class SampleRequest:
    """How many draws to take and with which seed."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 draws, got %d" % self.n)
        if self.seed < 0:
            raise ValueError("need seed >= 0, got %d" % self.seed)


def tabulate(spec: DistributionSpec) -> GridDistribution:
    """Evaluate the density on its grid and accumulate the normalized CDF.

    The CDF is the trapezoid-rule cumulative of the tabulated density,
    rescaled so cdf[-1] == 1 exactly.  Raises DistributionSpecError when the
    density is non-finite or non-positive anywhere on the grid.
    """
    xs = np.linspace(spec.d_low, spec.d_high, spec.grid_points)
    pdf = spec.pdf(xs)
    if not np.all(np.isfinite(pdf)) or np.any(pdf <= 0.0):
        raise DistributionSpecError(
            "density %s is not finite and positive on the whole grid" % spec.describe())
    increments = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(increments)])
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    for arr in (xs, pdf, cdf):
        arr.setflags(write=False)
    return GridDistribution(xs=xs, pdf=pdf, cdf=cdf)


def draw(dist: GridDistribution, req: SampleRequest) -> OrderedSample:
    """Seeded inverse-CDF draws, returned as a descending OrderedSample.

    Each uniform is mapped through the tabulated CDF by linear interpolation
    between the bracketing grid nodes, so every draw lies in
    [xs[0], xs[-1]].  Identical (dist, n, seed) give identical samples.
    """
    rng = np.random.default_rng(req.seed)
    u = rng.random(req.n)
    xs = np.interp(u, dist.cdf, dist.xs)
    return OrderedSample(xs)


def sigma_statistic(sample: OrderedSample) -> float:
    """Average natural logarithm over the whole sample."""
    return mean_log(sample, full_window(sample))
