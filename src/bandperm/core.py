"""Permutations of a symmetric integer interval and their displacement algebra.

Everything in this package is built on bijections pi of the interval
[-n, n].  This module holds the value types (model parameters, permutations,
cycle statistics) and the handful of primitives the other modules consume:
orbit extraction, displacement energy, band-support membership and the
image-swap move.  Each primitive is written once over a raw image tuple
(``orbit``, ``displacement_sum``, ``image_max_displacement``, ``swapped``);
the Permutation-level functions validate their arguments and delegate to
it, the sampler calls ``orbit`` on its live state, and the tests' per-image
reference calls them all.  The scaled energy terms (d / W)^p are written
once too, as the ``displacement_costs`` table: ``energy``, the sampler, the
exact oracle and the uncrossing certificates all read it.  The energy
change of one image swap is written once as ``swap_cost``, the four terms
of that table the swap changes: the chain's acceptance probability and
every finite-p certificate check read it.  The chain's hot loop in
``sampler._drive`` keeps an inline copy on purpose, since a call per
proposal would slow the long finite-p chains.
The exhaustive layers work on numpy tables of images, one image per row:
``_orbit_table`` is the one orbit walk over such a table, point-major, and
both the finite-p oracle and the uncrossing certificates read it.

All operations are pure: inputs are never mutated and results are fresh
values, so they are safe to call from concurrent workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

INFINITY = math.inf


class DomainError(ValueError):
    """An index or image value falls outside the interval [-n, n]."""


class DegenerateSwapError(ValueError):
    """swap_images was asked to swap a position with itself."""


class UnsupportedExponentError(ValueError):
    """The operation needs a finite displacement exponent; the uncrossing
    checks also need its powers (2n)^p to be finite floats."""


@dataclass(frozen=True)
class ModelParams:
    """The model triple: displacement exponent p, bandwidth W, half-length n.

    p may be any real >= 1 or ``math.inf``; at infinite p the displacement
    penalty degenerates to a hard cap of W on every |pi(i) - i|.  The domain
    of all permutations is [-n, n], of size 2n + 1.
    """

    p: float
    W: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.W, int) or self.W < 1:
            raise ValueError(f"W must be a positive integer, got {self.W!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        p = self.p
        if not isinstance(p, (int, float)) or math.isnan(p) or p < 1:
            raise ValueError(f"p must be a real >= 1 or infinity, got {p!r}")

    @property
    def infinite_p(self) -> bool:
        return self.p == INFINITY

    @property
    def interval_size(self) -> int:
        return 2 * self.n + 1

    def check_interval(self, pi: Permutation) -> None:
        """Raise DomainError unless pi is a permutation of [-n, n]."""
        if pi.n != self.n:
            raise DomainError(
                f"params are for [-{self.n}, {self.n}] but permutation is "
                f"for [-{pi.n}, {pi.n}]"
            )


@dataclass(frozen=True)
class Permutation:
    """A bijection of [-n, n], stored as the image tuple (pi(-n), ..., pi(n)).

    The constructor validates bijectivity, so any held instance is a genuine
    permutation.  The wire format (shared with the CLI) is the same image
    sequence as a JSON array; see :meth:`to_list` / :meth:`from_list`.
    """

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        m = len(image)
        if m < 3 or m % 2 == 0:
            raise ValueError(f"image length must be odd and >= 3, got {m}")
        n = m // 2
        seen = [False] * m
        for v in image:
            if not isinstance(v, int) or not -n <= v <= n:
                raise DomainError(f"image value {v!r} outside [{-n}, {n}]")
            if seen[v + n]:
                raise ValueError(f"value {v} repeated: image is not a bijection")
            seen[v + n] = True

    @property
    def n(self) -> int:
        return len(self.image) // 2

    def __call__(self, i: int) -> int:
        n = self.n
        if not -n <= i <= n:
            raise DomainError(f"point {i} outside [{-n}, {n}]")
        return self.image[i + n]

    def domain(self) -> range:
        return range(-self.n, self.n + 1)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(-n, n + 1)))

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping[int, int]) -> Permutation:
        """Identity on [-n, n] except at the explicitly mapped points.

        >>> Permutation.from_mapping(2, {0: 1, 1: 0}).image
        (-2, -1, 1, 0, 2)
        """
        image = list(range(-n, n + 1))
        for i, v in mapping.items():
            if not -n <= i <= n:
                raise DomainError(f"point {i} outside [{-n}, {n}]")
            image[i + n] = v
        return cls(tuple(image))

    def to_list(self) -> list[int]:
        """The JSON wire format: images for i = -n..n as a plain list."""
        return list(self.image)

    @classmethod
    def from_list(cls, values: Iterable[int]) -> Permutation:
        return cls(tuple(int(v) for v in values))


@dataclass(frozen=True)
class CycleStats:
    """The orbit of one point: its element set, period, extremes and diameter.

    diam is max - min of the element set; a fixed point has diam 0 and
    length 1.
    """

    elements: frozenset[int]
    length: int
    min: int
    max: int
    diam: int


def orbit(image: tuple[int, ...], j: int) -> list[int]:
    """The orbit j, pi(j), pi^2(j), ... of j under an image tuple, one period long.

    The image tuple is (pi(-n), ..., pi(n)); the walk stops when it returns
    to j, which bijectivity guarantees.
    """
    n = len(image) // 2
    members = [j]
    x = image[j + n]
    while x != j:
        members.append(x)
        x = image[x + n]
    return members


def _orbit_table(table: np.ndarray, x: int) -> np.ndarray:
    """:func:`orbit` of one point in every row of a member table at once.

    Rows are images shifted to 0..m-1 (point i of [-n, n] in column i + n),
    and x is a shifted point.  The result is point-major: its row k is
    pi^k(x) in every member, so each pointer jump is one contiguous gather.
    The walk stops once every member has come back to x, so the last row
    is x in the member with the longest cycle.
    """
    count, m = table.shape
    rows = np.arange(count)
    out = np.empty((m + 1, count), dtype=table.dtype)
    out[0] = x
    closed = np.zeros(count, dtype=bool)
    for k in range(1, m + 1):  # a cycle has at most m points
        out[k] = table[rows, out[k - 1]]
        closed |= out[k] == x
        if closed.all():
            break
    return out[: k + 1]


def cycle_of(pi: Permutation, j: int) -> CycleStats:
    """Orbit of j under iteration of pi, with its summary statistics."""
    n = pi.n
    if not -n <= j <= n:
        raise DomainError(f"point {j} outside [{-n}, {n}]")
    members = orbit(pi.image, j)
    lo = min(members)
    hi = max(members)
    return CycleStats(frozenset(members), len(members), lo, hi, hi - lo)


def displacement_costs(params: ModelParams) -> tuple[float, ...]:
    """The scaled table (d / W)^p for every displacement d = 0, ..., 2n.

    The one table of energy terms: :func:`energy`, the chain and its
    acceptance probability, the exact oracle's weights and the uncrossing
    certificates read it.  Scaling before the power keeps every term finite
    that is finite: at p=341, W=8, n=8 the largest is 2^341, although 16^341
    passes the float maximum.  A term that itself passes the maximum is inf.
    Python's float power is used, not numpy's, so the table is the same on
    every host; at W = 1 it holds the floats d^p.
    """
    W, p = params.W, float(params.p)
    costs = []
    for d in range(2 * params.n + 1):
        try:
            costs.append((d / W) ** p)
        except OverflowError:
            costs.append(INFINITY)
    return tuple(costs)


def displacement_sum(image: tuple[int, ...], costs: tuple[float, ...]) -> float:
    """sum_i costs[|pi(i) - i|] over an image tuple, accumulated from i = -n up.

    costs is the :func:`displacement_costs` table of the image's interval.
    """
    n = len(image) // 2
    total = 0.0
    for k, v in enumerate(image):
        total += costs[abs(v - (k - n))]
    return total


def swap_cost(costs, a, pa, b, pb):
    """E(sigma) - E(pi), where pi maps a to pa and b to pb, and sigma is pi
    with those two images traded.

    costs is a :func:`displacement_costs` table; only its four terms at a
    and b change, so no full energy is summed and nothing cancels, however
    large the energies are.  With the tuple table and int arguments it is
    one float; with the table as an ndarray and array arguments it is the
    same float expression elementwise, bit for bit.  Points and images may
    be shifted by a common offset, as in a member table.
    """
    return costs[abs(pb - a)] + costs[abs(pa - b)] - costs[abs(pa - a)] - costs[abs(pb - b)]


def energy(pi: Permutation, params: ModelParams) -> float:
    """Displacement energy sum_i (|pi(i) - i| / W)^p, finite p only.

    Zero exactly when pi is the identity.  At p = infinity there is no
    energy, only support membership; use :func:`in_support` instead.
    The terms are the scaled :func:`displacement_costs`, so a small energy
    stays finite where the unscaled sum would overflow: 2 for the endpoint
    swap at p=341, W=8, n=4, whose two terms 8^341 sum past the float
    maximum.
    """
    if params.infinite_p:
        raise UnsupportedExponentError(
            "energy is undefined at p = infinity; use in_support"
        )
    params.check_interval(pi)
    return displacement_sum(pi.image, displacement_costs(params))


def max_displacement(pi: Permutation) -> int:
    """max_i |pi(i) - i|."""
    return image_max_displacement(pi.image)


def image_max_displacement(image: tuple[int, ...]) -> int:
    """max_i |pi(i) - i| over an image tuple."""
    n = len(image) // 2
    return max(abs(v - (k - n)) for k, v in enumerate(image))


def in_support(pi: Permutation, W: int) -> bool:
    """Whether every displacement |pi(i) - i| is at most W."""
    if not isinstance(W, int) or W < 1:
        raise ValueError(f"W must be a positive integer, got {W!r}")
    return max_displacement(pi) <= W


def swap_images(pi: Permutation, a: int, b: int) -> Permutation:
    """The permutation agreeing with pi except images at a and b trade places.

    An involution in (a, b): swapping twice restores pi.
    """
    if a == b:
        raise DegenerateSwapError(f"cannot swap position {a} with itself")
    n = pi.n
    if not -n <= a <= n or not -n <= b <= n:
        raise DomainError(f"positions ({a}, {b}) not both inside [{-n}, {n}]")
    return Permutation(swapped(pi.image, a, b))


def swapped(image: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The image tuple with the images at positions a and b traded."""
    n = len(image) // 2
    out = list(image)
    out[a + n], out[b + n] = out[b + n], out[a + n]
    return tuple(out)


def reflect(pi: Permutation) -> Permutation:
    """Conjugate pi by the reflection i -> -i.

    The result maps i to -pi(-i); its displacement multiset equals pi's, so
    energy and band membership are preserved.
    """
    return Permutation(tuple(-v for v in reversed(pi.image)))
