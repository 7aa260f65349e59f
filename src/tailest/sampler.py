"""Grid-tabulated densities and reproducible inverse-CDF sampling.

Every built-in density is named once, in ``DENSITIES`` (kind -> CLI name,
parameter names, pdf).  ``DistributionSpec.of(kind, d_low, d_high,
**params)`` puts one on a bounded domain, ``tabulate`` builds its grid and
``draw(dist, n, seed)`` samples it.

A density is tabulated on a uniform grid over [d_low, d_high], accumulated
into a CDF with the trapezoid rule and rescaled so the last node equals 1.
Draws map uniforms through the tabulated inverse CDF with linear
interpolation inside the bracketing grid cell, exactly as
``np.interp(u, cdf, xs)`` does.

Randomness comes from numpy's PCG64, seeded only in ``SeedStreams``,
which restores the state ``PCG64(seed)`` starts in; so seed s draws the
uniforms of numpy's default generator for s.  The generator identity is
part of the package contract: the same (distribution, n, seed) triple
yields bit-identical samples on every platform and release.

Each uniform's grid cell is found by indexed search (a "guide table",
Chen & Asau 1974; Devroye 1986, section III.2.4): the grid keeps, for each
of M = 2^k >= grid_points equal buckets of [0, 1), the last node at or
below the bucket's start, so a uniform starts at its bucket's node and is
at most one step from its cell in nearly every case; the few that are not
take a binary search.  The value is then numpy's own interpolation formula
on that cell, and every uniform on which ``np.interp`` would take a special
branch (one on a node, or a non-finite result) is handed to ``np.interp``,
so every draw is bit-identical to it.  The uniforms are sorted first: each
draw depends on its own uniform alone and a sample is a multiset
(OrderedSample sorts it), so their order cannot change a sample, and
sorted they read the grid front to back.  Seed s gives the same uniforms to
every grid that draws the same n, so the table runner fills and sorts each
block of seeds once per n and maps it through up to three rows' grids
(``_draw_grids``), which took its time over 100 seeds from 0.085 to about
0.066 s on a 2-core Xeon.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .estimator import OrderedSample, full_window, mean_log

__all__ = [
    "DENSITIES",
    "DistributionSpecError",
    "DistributionSpec",
    "GridDistribution",
    "SeedStreams",
    "tabulate",
    "draw",
    "draw_block",
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
        for name, bound in (("d_low", self.d_low), ("d_high", self.d_high)):
            if not math.isfinite(bound):
                raise DistributionSpecError("%s must be finite, got %r" % (name, bound))
        if not (self.d_low < self.d_high):
            raise DistributionSpecError(
                "need d_low < d_high, got [%r, %r]" % (self.d_low, self.d_high))
        if self.d_low < 0.0:
            raise DistributionSpecError("d_low must be non-negative")
        if not (1000 <= self.grid_points <= 100000):
            raise DistributionSpecError(
                "grid_points must be in [1000, 100000], got %d" % self.grid_points)

    @classmethod
    def of(cls, kind: str, d_low: float, d_high: float, grid_points: int = 10000,
           **params: float) -> "DistributionSpec":
        """The spec of ``DENSITIES[kind]`` with its parameters given by name.

        The values are converted with float() and put in the registry's
        order, so keyword order does not matter; names the registry lacks go
        last, and __post_init__ rejects them with every other mismatch.
        """
        order = DENSITIES[kind].params if kind in DENSITIES else ()
        names = sorted(params, key=lambda name: order.index(name) if name in order else len(order))
        return cls(kind, d_low, d_high, grid_points,
                   tuple((name, float(params[name])) for name in names))

    # -- evaluation --------------------------------------------------------

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
    """Tabulated density and its normalized cumulative on a uniform grid.

    ``slope`` and ``guide`` serve the inverse-CDF lookup: slope[j] is
    (xs[j+1] - xs[j]) / (cdf[j+1] - cdf[j]), the slope ``np.interp`` takes
    on cell j, and guide[b] is the last node j with cdf[j] <= b / M for
    each of M = guide.size buckets, M the power of two >= the grid size.
    """

    xs: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray
    guide: np.ndarray


class SeedStreams:
    """The PCG64 streams of some seeds, each seeded once, replayed on demand.

    ``PCG64(seed)`` hashes its seed into a state, which costs about ten
    times as much as restoring a saved state (15 us against 1.5 us on a
    2-core Xeon).  A caller that draws the same seeds on many grids builds
    this once: it keeps each seed's starting state and increment (two
    128-bit integers), and :meth:`fill` restores them into one generator,
    which then yields the stream ``Generator(PCG64(seed))`` yields.  A slice
    ``streams[a:b]`` shares that generator.
    """

    def __init__(self, seeds: Iterable[int]):
        self.seeds = tuple(seeds)
        self._starts = []
        self._generator = None  # wraps the first seed's PCG64; fill sets its state
        for seed in self.seeds:
            if seed < 0:
                raise ValueError("need seed >= 0, got %d" % seed)
            bits = np.random.PCG64(seed)
            state = bits.state["state"]
            self._starts.append((state["state"], state["inc"]))
            if self._generator is None:
                self._generator = np.random.Generator(bits)

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, part: slice) -> "SeedStreams":
        view = copy.copy(self)
        view.seeds, view._starts = self.seeds[part], self._starts[part]
        return view

    def fill(self, out: np.ndarray) -> None:
        """Fill row i of the 2-D ``out`` with the first uniforms of seed i's stream."""
        for row, (state, inc) in zip(out, self._starts):
            self._generator.bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            self._generator.random(out=row)


def tabulate(spec: DistributionSpec) -> GridDistribution:
    """Evaluate the density on its grid and accumulate the normalized CDF.

    The CDF is the trapezoid-rule cumulative of the tabulated density,
    rescaled so cdf[-1] == 1 exactly; the grid's slopes and guide table are
    built with it.  Raises DistributionSpecError when the density is
    non-finite or non-positive anywhere on the grid, or its integral is not
    a finite positive number.
    """
    xs = np.linspace(spec.d_low, spec.d_high, spec.grid_points)
    return _grid(xs, spec.pdf(xs), spec.describe())


def _grid(xs: np.ndarray, pdf: np.ndarray, name: str) -> GridDistribution:
    """The grid of the density ``name`` with values pdf on increasing nodes xs."""
    if not np.all(np.isfinite(pdf)) or np.any(pdf <= 0.0):
        raise DistributionSpecError(
            "density %s is not finite and positive on the whole grid" % name)
    with np.errstate(over="ignore"):
        increments = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)
        cdf = np.concatenate([[0.0], np.cumsum(increments)])
    if not 0.0 < cdf[-1] < np.inf:
        raise DistributionSpecError(
            "density %s integrates to %r on the grid, outside the range of floats"
            % (name, float(cdf[-1])))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = np.diff(xs) / np.diff(cdf)  # inf or nan where the CDF is (nearly) flat
    # guide[b], the last node with cdf <= b/M, is j for the buckets
    # ceil(cdf[j] M) <= b < ceil(cdf[j+1] M); cdf * M is exact, M being a
    # power of two, and the counts of buckets per node sum to M
    m = 1 << (cdf.size - 1).bit_length()
    guide = np.repeat(np.arange(cdf.size - 1, dtype=np.int32),
                      np.diff(np.ceil(cdf * m).astype(np.intp)))
    for arr in (xs, pdf, cdf, slope, guide):
        arr.setflags(write=False)
    return GridDistribution(xs=xs, pdf=pdf, cdf=cdf, slope=slope, guide=guide)


def draw(dist: GridDistribution, n: int, seed: int) -> OrderedSample:
    """n seeded inverse-CDF draws, returned as a descending OrderedSample.

    Row 0 of ``draw_block(dist, n, [seed])``: the n uniforms of seed's
    PCG64 stream, as :class:`SeedStreams` restores it, mapped bit for bit
    as ``np.interp(u, dist.cdf, dist.xs)``, so every draw lies in
    [xs[0], xs[-1]].  Raises ValueError for n below 2 or a negative seed.
    """
    return OrderedSample(draw_block(dist, n, [seed])[0])


def draw_block(dist: GridDistribution, n: int,
               seeds: Sequence[int] | SeedStreams) -> np.ndarray:
    """The samples of several seeds at once, one row per seed.

    Row i holds ``draw(dist, n, seeds[i]).values``, in descending order and
    C-contiguous, as OrderedSample holds it: each seed draws its n uniforms
    from its own PCG64 stream, and the block is mapped in one call (see the
    module docstring).  ``seeds`` may be a :class:`SeedStreams`, so that a
    caller drawing the same seeds on many grids seeds each of them once.
    It is :func:`_draw_grids` with one grid; the table runner passes it up
    to three grids that draw the same n, so that they share one fill and
    one sort of the uniforms.
    """
    return next(_draw_grids([dist], n, seeds))


def _draw_grids(dists: Sequence[GridDistribution], n: int,
                seeds: Sequence[int] | SeedStreams) -> Iterator[np.ndarray]:
    """``draw_block(dist, n, seeds)`` for each grid of dists in turn.

    The seeds' uniforms are filled and sorted once and mapped through each
    grid: a draw depends only on its uniform and its grid, so every block
    is bit-identical to one drawn alone.  The sorted uniforms stay alive
    until the last block is mapped, one block-sized array more than a
    single grid needs.
    """
    if n < 2:
        raise ValueError("need n >= 2 draws, got %d" % n)
    streams = seeds if isinstance(seeds, SeedStreams) else SeedStreams(seeds)
    u = np.empty((len(streams), n))
    streams.fill(u)
    u.sort(axis=-1)
    for dist in dists:
        yield _descending_rows(_map_sorted(dist, u))


def _descending_rows(values: np.ndarray) -> np.ndarray:
    """The rows of values in descending order, as a new C-contiguous array.

    Mapped from sorted uniforms, a row is ascending unless rounding at a
    cell boundary inverted a pair, which none of the 3,900 rows of the 13
    table scenarios over seeds 1-300 does; so only rows that fail the order
    check (NaN included) are sorted, in place.
    """
    unsorted = np.flatnonzero(~(values[:, 1:] >= values[:, :-1]).all(axis=1))
    if unsorted.size:
        values[unsorted] = np.sort(values[unsorted], axis=1)
    return values[:, ::-1].copy()


def _inverse_cdf(dist: GridDistribution, u: np.ndarray) -> np.ndarray:
    """``np.interp(u, dist.cdf, dist.xs)`` bit for bit, after sorting u in
    place along its last axis (see the module docstring)."""
    u.sort(axis=-1)
    return _map_sorted(dist, u)


def _map_sorted(dist: GridDistribution, u: np.ndarray) -> np.ndarray:
    """``np.interp(u, dist.cdf, dist.xs)`` bit for bit, for u sorted along
    its last axis; u is not changed."""
    cdf, xs = dist.cdf, dist.xs
    if u.size and not (0.0 <= u[..., 0].min() and u[..., -1].max() < 1.0):
        return np.interp(u, cdf, xs)  # never drawn: outside [0, 1) or NaN
    flat = u.reshape(-1)
    # j: the last node with cdf[j] <= u, where u's cell starts
    j = dist.guide[(flat * dist.guide.size).astype(np.intp)].astype(np.intp)
    j += cdf.take(j + 1) <= flat
    short = np.flatnonzero(cdf.take(j + 1) <= flat)
    if short.size:
        j[short] = np.searchsorted(cdf, flat[short], side="right") - 1
    at = cdf.take(j)
    with np.errstate(over="ignore", invalid="ignore"):
        values = flat - at  # times slope[j], plus xs[j]: np.interp's formula
        values *= dist.slope.take(j)
        values += xs.take(j)
    special = np.flatnonzero((flat == at) | ~np.isfinite(values))
    if special.size:
        values[special] = np.interp(flat[special], cdf, xs)
    return values.reshape(u.shape)


def sigma_statistic(sample: OrderedSample) -> float:
    """Average natural logarithm over the whole sample."""
    return mean_log(sample, full_window(sample))
