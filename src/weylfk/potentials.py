"""Nonnegative interaction potentials on finite site sets.

Every potential built here is a pair potential
(sum_j F(x_j) + 2 sum_{j<k} G(x_j - x_k) + c) / divisor with an even pair
function G: identically zero (no terms), nearest-neighbor pairs on a lattice,
or all pairs averaged (mean field).  One class evaluates them and their exact
partial derivatives from the chain rule on that sum; the last two each certify
a site-uniform budget for summed derivative magnitudes that does not grow with
the number of sites.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .multiindex import MultiIndex

# sup_y |He_k(y)| exp(-y^2/4) <= CRAMER_CONSTANT * sqrt(k!)
CRAMER_CONSTANT = 1.086435


class MissingSupBoundError(ValueError):
    """A certified sup-norm was requested beyond what the function declares."""


@dataclass(frozen=True)
class ScalarFunction:
    """Smooth scalar function with vectorized derivatives and certified sup-norms.

    deriv_fn(k, y) returns the k-th derivative at y (any array shape) as a new
    array, which its caller may overwrite;
    sup_fn(k) returns a valid upper bound for sup |f^(k)|, or None when no
    finite certified bound is available at that order.  f must be even,
    f(-y) == f(y) bit for bit: pair potentials evaluate each unordered pair
    once, and so the oracle finds a 2-site pair potential exchange-symmetric.
    in_place declares that deriv_fn takes a third argument out, None or an
    array (possibly y), and may write the derivative there instead of anew.
    """

    name: str
    deriv_fn: Callable
    sup_fn: Callable
    in_place: bool = False

    def derivative(self, k: int, y, out=None):
        """f^(k)(y); with out, written into out (which may be y) and bitwise equal."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        y = np.asarray(y, dtype=float)
        value = self.deriv_fn(k, y, out) if self.in_place else self.deriv_fn(k, y)
        if out is None or value is out:
            return value
        np.copyto(out, value)
        return out

    def value(self, y):
        return self.derivative(0, y)

    def max_sup(self, k_min: int, k_max: int) -> float:
        """Largest certified sup-norm over derivative orders k_min..k_max."""
        worst = 0.0
        for k in range(k_min, k_max + 1):
            bound = self.sup_fn(k)
            if bound is None:
                raise MissingSupBoundError(
                    f"{self.name!r} has no certified sup bound at order {k}"
                )
            worst = max(worst, bound)
        return worst


def _float(v) -> float:
    """float(v), or inf for an integer beyond float range, which the checks reject."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _amplitude(amplitude) -> float:
    a = _float(amplitude)
    if not 0 <= a < math.inf:
        raise ValueError(f"amplitude must be finite and >= 0, not {amplitude!r}")
    return a


def _validate_amp_width(amplitude, width):
    a, w = _amplitude(amplitude), _float(width)
    if not 0 < w < math.inf:
        raise ValueError(f"width must be finite and positive, not {width!r}")
    return a, w


def zero_function() -> ScalarFunction:
    return ScalarFunction(
        "zero",
        lambda k, y: np.zeros_like(y),
        lambda k: 0.0,
    )


def constant_function(amplitude=1.0) -> ScalarFunction:
    a = _amplitude(amplitude)

    def deriv(k, y):
        return np.full_like(y, a) if k == 0 else np.zeros_like(y)

    return ScalarFunction("constant", deriv, lambda k: a if k == 0 else 0.0)


def harmonic_function(amplitude=1.0) -> ScalarFunction:
    """a*y^2; unbounded, so only orders >= 2 carry certified sup bounds."""
    a = _amplitude(amplitude)

    def deriv(k, y):
        if k == 0:
            return a * y * y
        if k == 1:
            return 2.0 * a * y
        if k == 2:
            return np.full_like(y, 2.0 * a)
        return np.zeros_like(y)

    def sup(k):
        if k <= 1:
            return None
        return 2.0 * a if k == 2 else 0.0

    return ScalarFunction("harmonic", deriv, sup)


def _hermite_e(k, u):
    # probabilists' Hermite polynomials by recurrence
    h_prev = np.ones_like(u)
    if k == 0:
        return h_prev
    h = u.copy()
    for n in range(1, k):
        h, h_prev = u * h - n * h_prev, h
    return h


def gaussian_bump_function(amplitude=1.0, width=1.0) -> ScalarFunction:
    """a*exp(-(y/w)^2/2) with closed-form derivatives via Hermite polynomials."""
    a, w = _validate_amp_width(amplitude, width)

    def deriv(k, y):
        u = y / w
        sign = -1.0 if k % 2 else 1.0
        return a * w ** (-k) * sign * _hermite_e(k, u) * np.exp(-0.5 * u * u)

    def sup(k):
        if k == 0:
            return a
        return a * w ** (-k) * CRAMER_CONSTANT * math.sqrt(math.factorial(k))

    return ScalarFunction("gaussian_bump", deriv, sup)


def lorentzian_function(amplitude=1.0, width=1.0) -> ScalarFunction:
    """a/(1+(y/w)^2): a real closed form at order 0, a Horner polynomial in u^2
    (u = y/w) above it, which overflows: inf at order 140 and NaN at 160 (ROADMAP
    smaller item "Lorentzian derivatives by partial fractions")."""
    a, w = _validate_amp_width(amplitude, width)

    def deriv(k, y, out=None):
        if k == 0:
            # real closed form, in place on one array; y / 1.0 is y exactly
            v = np.empty_like(y) if out is None else out
            u = y if w == 1.0 else np.divide(y, w, out=v)
            np.multiply(u, u, out=v)
            v += 1.0
            return np.divide(a, v, out=v)
        # d^k/du^k 1/(1+u^2) = (-1)^(k+1) k! Im((u-i)^(k+1)) / (1+u^2)^(k+1), whose
        # numerator sums C(k+1, j) (-1)^((j+1)/2) u^(k+1-j) over odd j: a real
        # polynomial in s = u^2 (times u for odd k), evaluated by Horner's rule
        u = y / w
        s = u * u
        scale = a * w ** (-k) * (-1.0) ** (k + 1) * math.factorial(k)
        coeffs = [scale * math.comb(k + 1, j) * (-1.0) ** ((j + 1) // 2)
                  for j in range(1, k + 2, 2)]
        num = np.full_like(s, coeffs[0])
        for c in coeffs[1:]:
            num *= s
            num += c
        if k % 2:
            num *= u
        num /= (s + 1.0) ** (k + 1)
        return num

    def sup(k):
        # |(u+i)^(-k-1)| <= 1 on the real line
        return a * w ** (-k) * math.factorial(k)

    return ScalarFunction("lorentzian", deriv, sup, in_place=True)


def cosine_function(amplitude=1.0, width=1.0) -> ScalarFunction:
    """a*(1+cos(y/w))/2, a nonnegative bounded oscillation."""
    a, w = _validate_amp_width(amplitude, width)

    def deriv(k, y):
        u = y / w
        if k == 0:
            return a * 0.5 * (1.0 + np.cos(u))
        return a * 0.5 * w ** (-k) * np.cos(u + k * math.pi / 2.0)

    def sup(k):
        return a if k == 0 else a * 0.5 * w ** (-k)

    return ScalarFunction("cosine", deriv, sup)


_BUILTIN_SCALARS = {
    "zero": zero_function,
    "constant": constant_function,
    "harmonic": harmonic_function,
    "gaussian_bump": gaussian_bump_function,
    "lorentzian": lorentzian_function,
    "cosine": cosine_function,
}
_SCALAR_KEYS = {name: set(inspect.signature(fn).parameters)
                for name, fn in _BUILTIN_SCALARS.items()}


def scalar_from_json(obj: dict) -> ScalarFunction:
    name = _kind(obj, "name", _SCALAR_KEYS, "scalar function")
    return _BUILTIN_SCALARS[name](**{k: v for k, v in obj.items() if k != "name"})


def _pair_blocks(pairs) -> list:
    """Group unordered site pairs (j, k), j < k, into blocks of contiguous slices.

    A block (a, b) pairs x[..., a] with x[..., b] elementwise; it holds the pairs
    of one offset k - j whose lower sites j are consecutive, so a 1-d chain in
    site order is a single block.
    """
    runs = []  # [offset, first j, last j + 1]
    for j, k in sorted(pairs, key=lambda p: (p[1] - p[0], p[0])):
        d = k - j
        if runs and runs[-1][0] == d and runs[-1][2] == j:
            runs[-1][2] = j + 1
        else:
            runs.append([d, j, j + 1])
    return [(slice(lo + d, hi + d), slice(lo, hi)) for d, lo, hi in runs]


def _column_total(acc):
    """The columns of acc added in turn into zeros."""
    total = np.zeros(acc.shape[:-1])
    for c in range(acc.shape[-1]):
        total += acc[..., c]
    return total


def _pair_sum(pair: ScalarFunction, x, blocks):
    """Sum of G(x_j - x_k) + G(x_k - x_j) = 2 G(x_j - x_k) over the unordered pairs in blocks.

    In one fixed order: block by block, column c of a block adds G at its
    differences into accumulator c mod 8; the 8 accumulators, which share one
    site-major array with the difference buffer G is evaluated in, are then
    added in turn into zeros, and the total is doubled.  Only elementwise adds
    touch the sum, so no layout of x changes it.
    """
    if not blocks:
        return np.zeros(x.shape[:-1])
    width = min(8, max(b.stop - b.start for _, b in blocks))
    acc, diff = np.moveaxis(np.empty((2, width) + x.shape[:-1]), 1, -1)
    acc.fill(0.0)
    for a, b in blocks:
        for lo in range(0, a.stop - a.start, 8):
            xa, xb = x[..., a][..., lo:lo + 8], x[..., b][..., lo:lo + 8]
            d, head = diff[..., :xa.shape[-1]], acc[..., :xa.shape[-1]]
            head += pair.derivative(0, np.subtract(xa, xb, out=d), out=d)
    return 2.0 * _column_total(acc)


class PotentialSpec:
    """Base class for a nonnegative potential over an ordered finite site list."""

    def __init__(self, sites):
        self.sites = tuple(sites)
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate sites")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def _as_points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n_sites:
            raise ValueError(
                f"point has trailing dimension {x.shape[-1] if x.ndim else 0}, "
                f"expected {self.n_sites}"
            )
        return x

    def eval(self, x):
        raise NotImplementedError

    def check_positions(self, *indices: MultiIndex):
        """Raise ValueError unless every index addresses positions 0..n_sites-1."""
        for index in indices:
            for pos in index.support:
                if pos >= self.n_sites:
                    raise ValueError(f"multi-index site {pos!r} is not a site position: "
                                     f"the site count is {self.n_sites}")

    def partial(self, alpha: MultiIndex, x):
        """The partial derivative of order alpha at the points x; alpha addresses
        each coordinate by its position 0..n_sites-1 in the site list."""
        self.check_positions(alpha)
        x = self._as_points(x)
        if alpha.is_zero():
            return self.eval(x)
        return self._partial(alpha, x)

    def _partial(self, alpha: MultiIndex, x):
        """partial() for a nonzero alpha on checked points."""
        raise NotImplementedError

    def separable_axis(self) -> Optional["PotentialSpec"]:
        """A one-site potential W with V(x) = sum_j W(x_j), or None if V couples sites."""
        return None


class PairPotential(PotentialSpec):
    """(sum_j F(x_j) + 2 sum_{j<k} G(x_j - x_k) + constant) / divisor, G even.

    pairs lists the interacting unordered pairs (j, k), j < k, by site
    position; on_site may be None for no on-site term, and with no pairs
    either this is the zero potential.  Partial derivatives follow from the
    chain rule term by term: G^(m)(-y) = (-1)^m G^(m)(y), and a pair term
    depends on two sites, so indices over three or more sites give zero.
    """

    def __init__(self, sites, on_site: Optional[ScalarFunction], pair: ScalarFunction,
                 pairs, divisor=1, constant=0.0):
        super().__init__(sites)
        self.on_site = on_site
        self.pair = pair
        self._divisor = divisor
        self._constant = constant
        pairs = list(pairs)
        self._blocks = _pair_blocks(pairs)
        self._partners = [[] for _ in self.sites]
        for j, k in pairs:
            self._partners[j].append(k)
            self._partners[k].append(j)

    def separable_axis(self):
        """The on-site term and an even share of the constant, when no pair term
        remains: no interacting pairs, or a pair function certified zero."""
        if self._blocks and self.pair.sup_fn(0) != 0:
            return None
        return PairPotential(self.sites[:1], self.on_site, self.pair, [], self._divisor,
                             self._constant / self.n_sites)

    def eval(self, x):
        x = self._as_points(x)
        total = _pair_sum(self.pair, x, self._blocks)
        total += self._constant
        if self.on_site is not None:
            acc = self.on_site.value(x[..., :8])  # a new array; site j adds to column j % 8
            for lo in range(8, self.n_sites, 8):
                acc[..., :min(8, self.n_sites - lo)] += self.on_site.value(x[..., lo:lo + 8])
            total += _column_total(acc)
        total /= self._divisor
        return total

    def _partial(self, alpha, x):
        m = alpha.order
        support = alpha.support
        total = np.zeros(x.shape[:-1])
        if len(support) == 1:
            (j,) = support
            if self.on_site is not None:
                total += self.on_site.derivative(m, x[..., j])
            for k in self._partners[j]:
                total += 2.0 * self.pair.derivative(m, x[..., j] - x[..., k])
        elif len(support) == 2 and support[1] in self._partners[support[0]]:
            j, k = support
            sign = (-1.0) ** alpha.get(k)
            total += 2.0 * sign * self.pair.derivative(m, x[..., j] - x[..., k])
        return total / self._divisor


class NearestNeighborPotential(PairPotential):
    """On-site terms F(x_j) plus pair terms G(x_j - x_k) over adjacent lattice sites.

    Sites carry integer lattice coordinates; two sites are adjacent when the
    sup-norm of their coordinate difference is one, and both ordered pairs of
    an adjacent couple contribute.
    """

    def __init__(self, dim, sites, on_site: ScalarFunction, pair: ScalarFunction):
        sites = tuple(sites)
        for s in sites:
            if not isinstance(s, tuple) or len(s) != dim:
                raise ValueError(f"site {s!r} does not have {dim} coordinates")
        self.dim = int(dim)
        adjacent = [
            (j, k)
            for j, k in itertools.combinations(range(len(sites)), 2)
            if max(abs(a - b) for a, b in zip(sites[j], sites[k])) == 1
        ]
        super().__init__(sites, on_site, pair, adjacent)

    def certified_cm(self, m: int) -> float:
        """Site-uniform budget for summed derivative magnitudes, valid for any site count.

        Each active site meets at most one on-site term and at most 2*3^d
        ordered adjacent pairs; 2^m and 4^m dominate the number of sub-indices
        a term can absorb through one site or one pair.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        on_site_part = 2.0**m * self.on_site.max_sup(1, m)
        pair_part = 2.0 * 3.0**self.dim * 4.0**m * self.pair.max_sup(1, 2 * m)
        return on_site_part + pair_part


class MeanFieldPotential(PairPotential):
    """All-ordered-pairs interaction averaged by the site count.

    The diagonal pairs contribute the constant G(0) per site and are included
    by default; excluding them only shifts the potential by that constant.
    """

    def __init__(self, sites, pair: ScalarFunction, include_diagonal=True):
        sites = tuple(sites)
        n = len(sites)
        constant = n * float(pair.value(0.0)) if include_diagonal else 0.0
        super().__init__(sites, None, pair, itertools.combinations(range(n), 2), n, constant)

    def certified_cm(self, m: int) -> float:
        """Site-uniform budget for summed derivative magnitudes; the 1/n averaging
        makes the all-pairs sum an O(1) aggregate per active site."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return 2.0 * 4.0**m * self.pair.max_sup(1, 2 * m)


# the keys each variant and each family reads, besides the one that names it;
# the keys in _OPTIONAL have defaults, and the type of each key in _CHECKS is checked
_VARIANT_KEYS = {"zero": {"sites"}, "nearest_neighbor": {"sites", "d", "F", "G"},
                 "mean_field": {"sites", "G", "include_diagonal"}}
_FAMILY_KEYS = {"nearest_neighbor_chain": {"F", "G"}, "mean_field": {"G", "include_diagonal"}}
_OPTIONAL = {"include_diagonal", "amplitude", "width"}


def _is(v, types) -> bool:
    """isinstance(v, types), false for a bool: JSON true is not the number 1."""
    return isinstance(v, types) and not isinstance(v, bool)


_CHECKS = {
    "sites": (lambda v: isinstance(v, list), "a list"),
    "d": (lambda v: _is(v, int) and v >= 1, "an integer >= 1"),
    "include_diagonal": (lambda v: isinstance(v, bool), "true or false"),
    "amplitude": (lambda v: _is(v, (int, float)), "a number"),
    "width": (lambda v: _is(v, (int, float)), "a number"),
}


def _kind(obj: dict, key, known: dict, what, optional=_OPTIONAL) -> str:
    """obj[key], after checking that it is known, that it reads every other key,
    that every key it reads without a default is there, and the type of each."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{what} description must be an object with {key!r}")
    kind = obj[key]
    if not isinstance(kind, str) or kind not in known:
        raise ValueError(f"unknown {what} {kind!r}; known: {sorted(known)}")
    unused = sorted(set(obj) - known[kind] - {key})
    if unused:
        raise ValueError(f"{what} {kind!r} does not use {', '.join(unused)}")
    missing = sorted(known[kind] - optional - set(obj))
    if missing:
        raise ValueError(f"{what} {kind!r} requires {', '.join(missing)}")
    for k, v in obj.items():
        if k in _CHECKS and not _CHECKS[k][0](v):
            raise ValueError(f"{what} {kind!r}: {k!r} must be {_CHECKS[k][1]}, not {v!r}")
    return kind


def _site(s):
    """A site from its JSON form: an integer, or a nonempty list of integers as a tuple."""
    if _is(s, int) or isinstance(s, list) and s and all(_is(c, int) for c in s):
        return tuple(s) if isinstance(s, list) else s
    raise ValueError(f"site {s!r} is not an integer or a list of integers")


def potential_from_json(obj: dict) -> PotentialSpec:
    """Build a potential from its JSON description; a malformed one is a ValueError."""
    variant = _kind(obj, "variant", _VARIANT_KEYS, "potential")
    sites = [_site(s) for s in obj["sites"]]
    if len({type(s) for s in sites}) > 1:
        raise ValueError("sites must be all integers or all lists of integers")
    if variant == "zero":
        return PairPotential(sites, None, zero_function(), [])
    if variant == "nearest_neighbor":
        return NearestNeighborPotential(
            obj["d"], sites, scalar_from_json(obj["F"]), scalar_from_json(obj["G"])
        )
    return MeanFieldPotential(
        sites, scalar_from_json(obj["G"]), include_diagonal=obj.get("include_diagonal", True)
    )


def family_from_json(obj: dict) -> Callable[[int], PotentialSpec]:
    """The size sweeps' potentials, a function from the site count n to a chain
    0..n-1 or a mean field over n sites; described as a potential minus its sites."""
    kind = _kind(obj, "family", _FAMILY_KEYS, "family", _OPTIONAL | {"F"})
    G = scalar_from_json(obj["G"])
    if kind == "nearest_neighbor_chain":
        F = scalar_from_json(obj.get("F", {"name": "zero"}))
        return lambda n: NearestNeighborPotential(1, [(i,) for i in range(n)], F, G)
    include_diagonal = obj.get("include_diagonal", True)
    return lambda n: MeanFieldPotential(range(n), G, include_diagonal)
