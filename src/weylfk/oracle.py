"""Low-dimensional ground truth: grid semigroups and phase-space transforms.

Conventions.  The operator is the Dirichlet finite-difference Laplacian plus
the diagonal potential on a cell-centered uniform grid, so the matching path
sampler preset is GENERATOR_LAPLACIAN.  A matrix M represents the kernel
K(y, z) times the cell volume, which makes matrix products compose like
operators and the matrix trace equal the operator trace.  exp(-tH) is formed
from an eigendecomposition H = Q diag(w) Q^T as B B^T with B = Q exp(-tw/2),
a symmetric rank-k product that is exactly symmetric.  A semigroup is a
Kronecker product of factors: one dense factor, or, if a 2-site H separates
as H_1 x I + I x H_1, its axis factor M_1 on each axis, so that trace, symbol,
decay check and pairing are products over factors and no n^2 x n^2 matrix is
formed.  A coupled 2-site H whose diagonal is exactly invariant under
inversion or site exchange commutes with those permutations, and is
diagonalized on one block per symmetry character (about n^2/4 rows each);
others are diagonalized densely.  1-d oracles stay dense: a parity split
leaves rounding noise of about 1e-15 on far off-diagonal kernel entries,
against 2e-16 dense, which is enough to fail the decay check at small t.

The phase-space symbol of a kernel is its Fourier transform along the
antidiagonal.  On the grid, the antidiagonal through a center x_i carries a
step of twice the spacing, so the frequency grid is pi*k/(n*dx).  Entries
falling outside the matrix are zero-padded.  Each transform covers the full
window of centers, which trace and pairing identities use as it is, because
the padding cancels between their two sides; where symbol accuracy is
claimed, a window of centers is cut from it and a decay check converts the
truncation into a hard error.  In any dimension the kernel entry (C + O,
C - O) of a flat center C and flat signed offset O has the flat index
C (N + 1) + O (N - 1), N = n^dim, and a half-grid center the half of
S (N + 1) + D (N - 1), S and D the flat sum and difference of the pair: the
transform, the decay check and the pointwise symbol all read the kernel
there.  One transform, :func:`matrix_symbol_bands`, serves every kernel, the
rank-one f g^* of the pairing's test functions too (dx/(2 pi) times its
symbol is their cross-Wigner function), in bands of centers (ROW_BAND in
1-d, one first-axis center in 2-d), bitwise equal to transforming every
center at once.  No full-window symbol table of the semigroup is formed: one
pass over the bands of each factor feeds the symbol integral, the pairing
(each band against the matching rows of the one pairing table, which every
axis shares) and the real window, and the commutator traces reduce the bands
likewise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product
from typing import Optional

import numpy as np

from .brownian import VariancePreset
from .potentials import PotentialSpec

ORACLE_VARIANCE = VariancePreset.GENERATOR_LAPLACIAN.sigma2  # the full-Laplacian convention
ROW_BAND = 64  # centers per 1-d transform band, and rows per pass over an n^2 array
DECAY_TOL = 1e-12  # kernel mass, relative to its peak, allowed at a truncation edge
SUPPORT_TOL = 1e-10  # grid-function mass, relative to its peak, allowed on the boundary


class DecayError(ArithmeticError):
    """Kernel mass survives at the truncation edge; the grid is too small."""


class SupportError(ArithmeticError):
    """A grid function is not supported well inside the grid."""


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-L, L]^dim."""

    half_width: float
    n_grid: int
    dim: int = 1

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if self.n_grid < 16 or self.n_grid & (self.n_grid - 1):
            raise ValueError("n_grid must be a power of two, at least 16")
        if self.dim not in (1, 2):
            raise ValueError("the oracle is limited to 1 or 2 sites")
        try:
            diagonal = 2.0 / self.spacing**2  # the 1-d Laplacian's diagonal entry
        except (OverflowError, ZeroDivisionError):
            diagonal = 0.0
        if not 0.0 < diagonal < math.inf:
            raise ArithmeticError(
                f"grid spacing {self.spacing!r} (half_width {self.half_width!r}, n_grid "
                f"{self.n_grid}) leaves double range: 2 / spacing**2 is not positive and finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_grid

    def axis(self) -> np.ndarray:
        return (np.arange(self.n_grid) + 0.5) * self.spacing - self.half_width

    def points(self) -> np.ndarray:
        ax = self.axis()
        if self.dim == 1:
            return ax[:, None]
        mesh = np.meshgrid(ax, ax, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, 2)

    @property
    def n_points(self) -> int:
        return self.n_grid**self.dim

    def xi_axis(self) -> np.ndarray:
        n = self.n_grid
        return (np.arange(n) - n // 2) * math.pi / (n * self.spacing)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def xi_spacing(self) -> float:
        return math.pi / (self.n_grid * self.spacing)

    @property
    def xi_cell_volume(self) -> float:
        return self.xi_spacing**self.dim


def build_hamiltonian(V: PotentialSpec, grid: Grid) -> np.ndarray:
    """Second-order central-difference Laplacian (Dirichlet) plus diagonal potential.

    The stencil (three-point in 1-d, five-point in 2-d) is written onto the
    diagonals of one zeroed array, equal in value to the Kronecker sum of 1-d
    Laplacians.
    """
    if V.n_sites != grid.dim:
        raise ValueError(
            f"potential has {V.n_sites} sites but the grid dimension is {grid.dim}"
        )
    n, N = grid.n_grid, grid.n_points
    dx2 = grid.spacing**2
    values = V.eval(grid.points())
    if np.any(values < -1e-12):
        raise ValueError("potential takes negative values on the grid")
    on, off = 2.0 / dx2, -1.0 / dx2  # the 1-d Laplacian's entries
    H = np.zeros((N, N))
    flat = H.reshape(-1)
    flat[:: N + 1] = on * grid.dim + values
    for stride in (n**axis for axis in range(grid.dim)):  # each axis's flat offset
        crosses = np.arange(N - stride) // stride % n == n - 1  # no neighbor past the edge
        for start in (stride, stride * N):  # above and below the diagonal
            along = flat[start : start + (N - stride) * (N + 1) : N + 1]
            along[:] = off
            along[crosses] = 0.0
    return H


class GridSemigroup:
    """exp(-t H) on the grid, built by :meth:`GridOracle.semigroup`, as the
    Kronecker product of its factors in axis order: one dense matrix, or the
    axis factor M_1 on each axis if V separates."""

    def __init__(self, grid: Grid, t: float, *factors: np.ndarray):
        self.grid, self.t, self.factors = grid, t, factors
        self.factor_grid = replace(grid, dim=grid.dim // len(factors))  # one factor's axes

    @property
    def trace(self) -> float:
        return math.prod(float(np.trace(M)) for M in self.factors)


@dataclass(frozen=True)
class PhaseSpaceTable:
    """Values on a (centers x frequencies) product grid, with the centers ``x`` and
    the frequencies ``xi`` on every axis."""

    grid: Grid
    t: float
    center_indices: tuple  # per-axis integer indices into the grid
    values: np.ndarray     # shape (*n_centers, *n_frequencies)
    max_imag: float
    symbol_integral: float                # of the full-window symbol
    pairing_residual: Optional[float]     # if it was given test functions

    @property
    def x(self) -> np.ndarray:
        return self.grid.axis()[self.center_indices[0]]

    @property
    def xi(self) -> np.ndarray:
        return self.grid.xi_axis()


def _offsets(n):
    return np.fft.ifftshift(np.arange(n) - n // 2)  # 0, 1, ..., n/2 - 1, -n/2, ..., -1


def _on_grid(centers, n, offsets):
    """Mask of the ``offsets`` m (one row per center, or one row for all) whose
    pair (c + m, c - m) lies on the grid, per center c of ``centers``:
    |m| <= min(c, n - 1 - c)."""
    return np.abs(offsets) <= np.minimum(centers, n - 1 - centers)[:, None]


def _flat(per_axis, n):
    """The outer sum sum_k a_k n^(dim - 1 - k) of per-axis arrays a_k: the flat
    grid index of per-axis indices, with the axes of a_0, a_1, ... in order."""
    return reduce(lambda total, a: np.add.outer(total * n, a), per_axis)


def matrix_symbol_bands(matrix: np.ndarray, grid: Grid):
    """The complex symbol of a kernel matrix: its Fourier transform along the
    antidiagonals through the grid centers, a band of centers at a time.

    The kernel entry (C + O, C - O) of a flat center C and a flat signed
    offset O has the flat index C (N + 1) + O (N - 1), N = n^dim; it is
    gathered with a ``take`` there, clipped onto the matrix.  The weight, the
    outer product of one weight 2 (-1)^m per axis, zero-pads the pairs off the
    grid (mask :func:`_on_grid`), the only ones that can fall off the matrix,
    and folds in the sign that centers the frequency axis, so no shifted
    copies are made.

    Yields (first center, values) per band, values of shape (first-axis
    centers in the band, *other center axes, *frequencies).  A band is
    ROW_BAND first-axis centers in 1-d and one in 2-d, the only difference
    between dimensions.  Each band's index is the first band's shifted by a
    constant, added in place; each band's values are a new array.
    """
    n, N, dim = grid.n_grid, grid.n_points, grid.dim
    if matrix.shape != (N, N):
        raise ValueError("matrix does not match the grid")
    m = _offsets(n)
    signed = 2.0 * (-1.0) ** m
    width = min(ROW_BAND, n) if dim == 1 else 1
    centers = _flat([np.arange(width)] + [np.arange(n)] * (dim - 1), n)
    index = np.add.outer(centers * (N + 1), _flat([m] * dim, n) * (N - 1))  # the first band's
    order = (*range(0, 2 * dim, 2), *range(1, 2 * dim, 2))  # (*centers, *offsets)
    for lo in range(0, n, width):
        rows = min(width, n - lo)
        band = [np.arange(lo, lo + rows)] + [np.arange(n)] * (dim - 1)  # centers per axis
        weights = [np.where(_on_grid(c, n, m), signed, 0.0) for c in band]
        weight = reduce(np.multiply.outer, weights).transpose(order)
        values = matrix.take(index[:rows], mode="clip") * weight
        yield lo, np.fft.fftn(values, axes=tuple(range(-dim, 0)))
        index += width * n ** (dim - 1) * (N + 1)  # the next band's centers


def default_margin(t: float, spacing: float) -> float:
    """Boundary distance at which the discrete kernel envelope has dropped
    below DECAY_TOL along the antidiagonal.

    The continuum Gaussian scale governs t >> spacing^2; for smaller t the
    matrix exponential decays per cell (hopping rate t/spacing^2) and a short
    Poisson-tail solve gives the required number of cells.  The decay check
    still hard-errors if either estimate proves too thin for a given kernel.
    """
    continuum = 1.1 * math.sqrt(ORACLE_VARIANCE * t * math.log(1.0 / DECAY_TOL))
    rate = ORACLE_VARIANCE * t / spacing**2
    if rate > 4.0:
        return continuum  # Gaussian regime; the Poisson tail bound is looser here
    term, hops = 1.0, 0
    while term > DECAY_TOL and hops < 80:
        hops += 1
        term *= rate / hops
    lattice = (hops / 2.0 + 1.0) * spacing
    return max(continuum, lattice)


def decay_window(factors, grid: Grid, t: float, region="auto") -> np.ndarray:
    """Grid indices (per axis) of the centers whose symbol is claimed accurate.

    ``factors`` are the Kronecker factors of a kernel matrix in axis order.
    ``"full"`` keeps every center unchecked, for identities in which the zero
    padding cancels.  ``"auto"`` keeps the centers that :func:`default_margin`
    puts far enough from the boundary for time t, and a number keeps |x| <=
    region.  Both are checked: kernel mass above ``DECAY_TOL`` times the
    kernel's maximum at the last on-grid offset of any antidiagonal through a
    kept center raises :class:`DecayError`.  For X kron Y an edge is |X| at
    the last offset on one axis times the masked maximum of |Y| on the other,
    or the mirror; rounding is monotone, so this equals the dense check bitwise.
    """
    n = grid.n_grid
    if region == "full":
        return np.arange(n)
    if region == "auto":
        limit = grid.half_width - default_margin(t, grid.spacing)
    else:
        limit = float(region)
    centers = np.nonzero(np.abs(grid.axis()) <= limit)[0]
    if centers.size == 0:
        raise DecayError(
            "no usable centers: the grid is too small for this time horizon"
        )
    step = grid.dim // len(factors)  # the axes of one factor
    N, m = n**step, _offsets(n)
    reach = np.minimum(centers, n - 1 - centers)  # last offset on the grid

    def face(M, end, sign):
        """Largest |M| at C (N + 1) + O (N - 1) on the antidiagonals through each
        kept center of M's axes: axis ``end`` at its last offset (``sign``),
        every other axis over its on-grid offsets."""
        offsets = [sign * reach[:, None] if k == end else m for k in range(step)]
        flat = _flat([(centers * (N + 1))[:, None] + o * (N - 1) for o in offsets], n)
        on_grid = reduce(np.logical_and.outer, [_on_grid(centers, n, o) for o in offsets])
        values = np.where(on_grid, np.abs(M.take(flat, mode="clip")), 0.0)
        return values.max(axis=tuple(range(1, 2 * step, 2)))

    edge = np.zeros((centers.size,) * grid.dim)
    for axis, sign in product(range(grid.dim), (1, -1)):
        # for X kron Y: the edge factor's face times the other's masked maximum
        faces = [face(M, axis - lo, sign) for lo, M in zip(range(0, grid.dim, step), factors)]
        np.maximum(edge, reduce(np.multiply.outer, faces), out=edge)
    # |M|.max() of each factor without an n^2 copy, and so of their Kronecker product
    max_abs = reduce(operator.mul, (max(M.max(), -M.min()) for M in factors))
    worst = np.unravel_index(np.argmax(edge), edge.shape)
    if edge[worst] > DECAY_TOL * max_abs:
        where = ", ".join(f"{grid.axis()[centers[k]]:.4g}" for k in worst)
        raise DecayError(
            f"kernel mass {edge[worst] / max_abs:.3e} at the truncation edge of center "
            f"x=({where}) exceeds {DECAY_TOL:g}; enlarge the grid for this t"
        )
    return centers


def semigroup_symbol_at(S: GridSemigroup, x, *xi) -> np.ndarray:
    """Symbol of a semigroup at one half-grid-aligned center, any frequencies.

    ``x`` holds one center per grid axis (a number in 1-d) and ``xi`` one
    frequency array per axis, broadcast together.  Centers midway between grid
    points use the odd antidiagonals of the kernel, so the usable x set has
    half the grid spacing and nests across grid refinement.  On an axis with
    half-grid index j the entries (a, b) with a + b = j - 1 lie on the grid
    for a - b in -r, -r + 2, ..., r, r = min(j - 1, 2n - 1 - j); a factor of
    N points reads them with one ``take`` at (S (N + 1) + D (N - 1)) / 2, S
    and D the flat sum and difference, and contracts them with each axis's
    phases.  The symbol is the product of the factors' values.
    """
    grid = S.grid
    x = [float(c) for c in np.atleast_1d(x)]
    if len(x) != grid.dim or len(xi) != grid.dim:
        raise ValueError(f"need one center and one frequency array per grid axis, {grid.dim}")
    n, dx = grid.n_grid, grid.spacing
    step = S.factor_grid.dim
    N = n**step
    axes = []  # per axis: the flat components of the kernel entries through the center, phases
    for c, freq in zip(x, np.broadcast_arrays(*(np.asarray(f, dtype=float) for f in xi))):
        j = round((c + grid.half_width) / (dx / 2.0))
        if not 1 <= j <= 2 * n - 1 or abs(-grid.half_width + j * dx / 2.0 - c) > 1e-9:
            raise ValueError(f"x={c!r} is not on the half-grid of centers")
        reach = min(j - 1, 2 * n - 1 - j)  # the index sum a + b is j - 1
        d = np.arange(-reach, reach + 1, 2)  # the index differences a - b on the grid
        axes.append((((j - 1) * (N + 1) + d * (N - 1)) // 2,
                     np.exp(-1j * dx * np.multiply.outer(d.astype(float), freq))))
    values = []
    for lo, M in zip(range(0, grid.dim, step), S.factors):
        flat, phases = zip(*axes[lo:lo + step])
        value = 2.0**step * np.tensordot(M.take(_flat(flat, n)), phases[0], axes=(0, 0))
        for p in phases[1:]:
            value = (value * p).sum(axis=0)
        values.append(value)
    return np.real(reduce(operator.mul, values))


def grid_edge_max(values, grid: Grid) -> float:
    """Largest |value| of a grid function on the grid boundary: the two ends
    in 1-d, the four faces in 2-d."""
    cube = np.abs(np.asarray(values)).reshape((grid.n_grid,) * grid.dim)
    return max(float(np.take(cube, end, axis=axis).max())
               for axis in range(grid.dim) for end in (0, -1))


def gaussian_test_functions(grid: Grid):
    """The pair f, g of unit-norm Gaussians exp(-(x - c)^2 / 2), c = 0 and 0.3,
    on the grid axis, against which the ``oracle`` command checks the pairing
    identity on every axis.  g vanishes at the boundary, to within
    ``SUPPORT_TOL`` of its peak, only for a half-width above about 7.1 plus
    half a cell; below it the pairing raises :class:`SupportError`, and so does
    a spacing so coarse that either is 0 at every cell."""
    pair = []
    for center in (0.0, 0.3):
        h = np.exp(-0.5 * (grid.axis() - center) ** 2)
        norm = math.sqrt((h**2).sum() * grid.spacing)
        if not norm > 0.0:
            raise SupportError(f"pairing test Gaussian centred at {center} is 0 at every cell "
                               f"of spacing {grid.spacing:.3g}; refine the grid")
        pair.append(h / norm)
    return tuple(pair)


def _pairing_table(f, g, grid: Grid) -> np.ndarray:
    """The cross-Wigner function of the test functions f, g, 1-d arrays of
    ``n_grid`` values each on the 1-d ``grid``, against which the pairing
    integrates the symbol on every axis: dx / (2 pi) times the full-window
    symbol of the rank-one kernel f conj(g)^T, complex, of shape (centers,
    frequencies).  Each must vanish at the boundary, or :class:`SupportError`."""
    f, g = (np.asarray(h, dtype=complex) for h in (f, g))
    if f.shape != (grid.n_grid,) or g.shape != (grid.n_grid,):
        raise ValueError(f"test functions must be 1-d arrays of n_grid = {grid.n_grid} values")
    for h in (f, g):
        peak, edge = np.abs(h).max(), grid_edge_max(h, grid)
        if edge > SUPPORT_TOL * peak:
            raise SupportError(f"pairing test function carries {edge / peak:.3e} of its "
                               "peak at the boundary; widen the grid")
    table = np.empty((grid.n_grid,) * 2, dtype=complex)
    for lo, band in matrix_symbol_bands(np.outer(f, np.conj(g)), grid):
        table[lo:lo + len(band)] = band
    table *= grid.spacing / (2 * math.pi)
    return table


def _symbol_pass(S: GridSemigroup, centers, f=None, g=None):
    """The symbol integral of S, the pairing residual of test functions f, g
    (None without them), and the real symbol on the window of ``centers`` with
    its largest |imaginary part|, from one pass over the symbol bands of each
    distinct factor (:func:`_factor_pass`).

    ``f`` and ``g`` are 1-d grid functions, used on every grid axis.  The
    pairing compares the grid inner product of exp(-tH) (f x ... x f) against
    g x ... x g with the full-window symbol integrated against their
    cross-Wigner function, the outer product of one table per axis
    (:func:`_pairing_table`), where the zero padding cancels.  Each result is
    a product over the factors; the window of two factors is their outer
    product, formed a first-axis center at a time.
    """
    grid = S.factor_grid
    W = None if f is None else _pairing_table(f, g, replace(S.grid, dim=1))
    distinct = {id(M): M for M in S.factors}
    passes = {key: _factor_pass(M, grid, centers, W, len(S.factors) == 1)
              for key, M in distinct.items()}
    totals, pairings, windows, imags = zip(*(passes[id(M)] for M in S.factors))
    total = reduce(operator.mul, totals).real
    full = S.grid
    integral = float(total * full.cell_volume * full.xi_cell_volume / (2 * math.pi) ** full.dim)
    residual = None
    if W is not None:
        # f x ... x f on the axes of one factor, and g likewise
        fM, gM = (reduce(np.multiply.outer, [np.asarray(h, dtype=complex)] * grid.dim).ravel()
                  for h in (f, g))
        lhs, rhs = 1.0, 1.0
        for M, paired in zip(S.factors, pairings):
            Mf = M @ fM.real + 1j * (M @ fM.imag)  # M @ fM would cast a real M to complex
            lhs *= grid.cell_volume * np.vdot(gM, Mf)  # vdot conjugates g
            rhs *= paired * grid.cell_volume * grid.xi_cell_volume
        residual = float(abs(lhs - rhs))
    if len(windows) == 1:
        return integral, residual, windows[0], imags[0]
    X, Y = windows
    values, max_imag = np.empty((len(X), len(Y)) + X.shape[1:] + Y.shape[1:]), 0.0
    for a, row in enumerate(X):  # axes (second-axis center, first and second frequency)
        block = np.multiply(row[:, None], Y[:, None, :])
        values[a] = block.real
        max_imag = max(max_imag, block.imag.max(), -block.imag.min())
    return integral, residual, values, float(max_imag)


def _factor_pass(M, grid: Grid, centers, W, real):
    """One pass over the symbol bands of the factor M: the sum of its
    full-window symbol; its pairing against the 1-d pairing table ``W`` on
    every one of its axes (0 if ``W`` is None), each band against the
    matching rows of W, never their n^4 outer product; and its window on
    ``centers`` along every axis, real with its largest |imaginary part| if
    ``real``, complex otherwise."""
    n, dim = grid.n_grid, grid.dim
    total, paired, max_imag = 0j, 0j, 0.0
    window = np.empty((len(centers),) * dim + (n,) * dim, dtype=float if real else complex)
    for lo, values in matrix_symbol_bands(M, grid):
        total += values.sum()
        if W is not None:  # a 2-d band is one first-axis center: (center, *frequencies)
            paired += (values.ravel() @ W[lo:lo + len(values)].ravel() if dim == 1
                       else ((values[0] @ W[:, :, None])[..., 0] @ W[lo]).sum())
        at, part = band_window(lo, values, centers)
        if part.size:
            window[at:at + len(part)] = part.real if real else part
            max_imag = max(max_imag, part.imag.max(), -part.imag.min())
    return total, paired, window, float(max_imag)


def band_window(lo, values, centers):
    """The part of a symbol band (first center ``lo``, as :func:`matrix_symbol_bands`
    yields it) on the window of ``centers`` along every axis, and the window row
    at which it starts."""
    first, stop = centers[0], centers[-1] + 1  # the kept centers are contiguous
    rows = slice(max(first - lo, 0), max(stop - lo, 0))
    part = values[(rows,) + (slice(first, stop),) * (values.ndim // 2 - 1)]
    return lo + rows.start - first, part


def _symmetries(diagonal, n):
    """Flat-index permutations, among inversion (x1, x2) -> (-x1, -x2) and site
    exchange, that map the 2-d Hamiltonian's diagonal onto itself bit for bit.

    The finite-difference Laplacian commutes with both on the cell-centered
    grid, so each permutation kept commutes exactly with H.
    """
    k = np.arange(n * n)
    inversion, exchange = k[::-1], k.reshape(n, n).T.ravel()
    return [p for p in (inversion, exchange) if np.array_equal(diagonal[p], diagonal)]


def _symmetry_blocks(H, generators):
    """H block-diagonalized by the characters of the group that commuting
    involutions generate.

    Element e applies the generators whose bits it sets, and character c takes
    chi_c(e) = (-1)^popcount(c & e).  An orbit a with representative r_a (its
    smallest flat index) spans, for every character trivial on the stabilizer
    of r_a, the unit vector with entry chi_c(g)/sqrt(|orbit|) at each point
    g(r_a): at most 4 nonzeros.  As H commutes with the group, the block entry
    between orbits a and b is sum_e chi_c(e) H[r_a, e(r_b)] / sqrt(|stab_a|
    |stab_b|), gathered from the representatives' rows of H.

    Returns per character (block, kept orbits, their weights 1/sqrt(|orbit|)),
    the character table chi[c, e], and per point k = g(r_a) its slot
    g * n_orbits + a.
    """
    size = H.shape[0]
    perms = [np.arange(size)]
    for g in generators:
        perms += [g[p] for p in perms]
    images = np.stack(perms)
    reps, orbit = np.unique(images.min(axis=0), return_inverse=True)
    element = (images[:, reps[orbit]] == np.arange(size)).argmax(axis=0)
    fixed = images[:, reps] == reps  # (element, orbit): e stabilizes r_a
    stabilizer = fixed.sum(axis=0)
    weight = np.sqrt(stabilizer / len(perms))
    rows = H[reps]
    gathered = [rows[:, p[reps]] for p in perms]
    chi = np.array([[(-1.0) ** bin(c & e).count("1") for e in range(len(perms))]
                    for c in range(len(perms))])
    blocks = []
    for signs in chi:
        kept = np.flatnonzero(~(fixed & (signs < 0)[:, None]).any(axis=0))
        scale = 1.0 / np.sqrt(stabilizer[kept])
        block = sum(x * g for x, g in zip(signs, gathered))[np.ix_(kept, kept)]
        block *= np.multiply.outer(scale, scale)
        blocks.append((block, kept, weight[kept]))
    return blocks, chi, element * reps.size + orbit


def _spectrum(w, Q):
    """eigh factors, with each column's largest and smallest |Q| for :func:`_gram`."""
    magnitude = np.abs(Q)
    return w, Q, (magnitude.max(axis=0), magnitude.min(axis=0))


def _gram(w, Q, extent, t):
    """Q exp(-tw) Q^T as B B^T with B = Q exp(-tw/2).

    numpy runs B @ B.T as a symmetric rank-k update, half the flops of a
    general product, and the result is exactly symmetric.  Subnormal entries
    of B (each below 2.3e-308) slow the product several-fold and are flushed.
    Rounding is monotone, so a column's largest (smallest) |B| is its largest
    (smallest) |Q|, from ``extent``, times its scale: the columns that vanish
    entirely and those with nothing to flush are known before B is formed.
    The eigenvalues ascend, so the vanished columns trail and B is formed
    without them; the flush scans only the columns from the first that has
    an entry to flush.
    """
    tiny = np.finfo(float).tiny
    largest, smallest = extent
    scale = np.exp(-0.5 * t * w)
    live = np.flatnonzero(largest * scale >= tiny)
    k = live[-1] + 1 if live.size else 0
    B = Q[:, :k] * scale[:k]
    flushed = np.flatnonzero(smallest[:k] * scale[:k] < tiny)
    if flushed.size:
        tail = B[:, flushed[0]:]
        tail[np.abs(tail) < tiny] = 0.0
    return B @ B.T


class GridOracle:
    """Spectral factors of the Hamiltonian and symbol tables.

    A separable 2-site V is decomposed on one axis.  A coupled 2-site H exactly
    invariant under inversion or site exchange is decomposed on the orbit
    basis of those symmetries, one ``eigh`` per character (4 blocks of about
    n^2/4 rows with both symmetries, 2 of n^2/2 with one), and its semigroup
    is assembled from the blocks.  Anything else, and every 1-d oracle (see
    the module notes), takes one dense ``eigh``.
    """

    def __init__(self, V: PotentialSpec, grid: Grid):
        self.grid = grid
        axis = V.separable_axis() if grid.dim == 2 and V.n_sites == 2 else None
        # the axes of one Kronecker factor of exp(-tH): all of them, or one if V separates
        self.factor_grid = grid if axis is None else replace(grid, dim=1)
        H = build_hamiltonian(V if axis is None else axis, self.factor_grid)
        generators = _symmetries(H.diagonal(), grid.n_grid) if self.factor_grid.dim == 2 else []
        if not generators:
            self._spectra, self._slots = [_spectrum(*np.linalg.eigh(H))], None
            return
        blocks, self._characters, self._slots = _symmetry_blocks(H, generators)
        del H  # n^4 entries, not needed by the block eighs
        self._spectra, self._kept = [], []
        for block, kept, weight in blocks:
            w, U = np.linalg.eigh(block)
            U *= weight[:, None]  # so that each block's B B^T carries the orbit weights
            self._spectra.append(_spectrum(w, U))
            self._kept.append(kept)

    def semigroup(self, t: float) -> GridSemigroup:
        """exp(-tH) from the cached spectral factors, its axis factor per axis if V separates.

        Each factor set gives B B^T (see :func:`_gram`).  With symmetry blocks,
        whose products K_c carry the orbit weights, the entry between points
        g(r_a) and h(r_b) is L_{gh}[a, b] with L_e = sum_c chi_c(e) K_c: each
        (g, h) block of M is gathered from L_{gh} at the orbits of its points
        and written at their slots, which keeps M exactly symmetric.
        """
        if not t > 0.0:
            raise ValueError("t must be positive")
        if self._slots is None:
            (spectrum,) = self._spectra
            M = _gram(*spectrum, t)
            n_factors = self.grid.dim // self.factor_grid.dim
            return GridSemigroup(self.grid, float(t), *[M] * n_factors)
        n_orbits = self._kept[0].size  # the trivial character keeps every orbit
        sums = np.zeros((len(self._spectra), n_orbits, n_orbits))  # L_e, by group element
        for signs, spectrum, kept in zip(self._characters, self._spectra, self._kept):
            K = _gram(*spectrum, t)
            for L, x in zip(sums, signs):
                L[np.ix_(kept, kept)] += x * K
        N = self.grid.n_points
        M = np.empty((N, N))
        element, orbit = np.divmod(self._slots, n_orbits)
        points = [np.flatnonzero(element == e) for e in range(len(sums))]
        for g, rows in enumerate(points):
            for h, cols in enumerate(points):
                M[np.ix_(rows, cols)] = sums[g ^ h][np.ix_(orbit[rows], orbit[cols])]
        return GridSemigroup(self.grid, float(t), M)

    def symbol(self, S: GridSemigroup, region="auto", pairing=None) -> PhaseSpaceTable:
        """Real symbol of the semigroup S, this oracle's :meth:`semigroup`, on the
        window of centers that :func:`decay_window` keeps.

        Nonnegative potentials only shrink the kernel, so the free envelope
        behind the default window is conservative.  The window is formed band
        by band in one pass over the symbol (:func:`_symbol_pass`), which also
        gives the table its ``symbol_integral`` and, if ``pairing`` is a pair
        (f, g) of 1-d grid functions, which every axis uses, its
        ``pairing_residual``.
        """
        if S.grid != self.grid:
            raise ValueError(f"semigroup was built on {S.grid}, not {self.grid}")
        centers = decay_window(S.factors, self.grid, S.t, region)
        f, g = pairing or (None, None)
        integral, residual, values, max_imag = _symbol_pass(S, centers, f, g)
        return PhaseSpaceTable(self.grid, S.t, (centers,) * self.grid.dim, values, max_imag,
                               integral, residual)
