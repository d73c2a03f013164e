"""Trace of observable commutators against quantized phase-space states.

The experiment quantizes a nonnegative, trace-one phase-space Gaussian,
commutes the semigroup with a polynomial multiplication operator, and takes
the trace two independent ways: as a matrix trace, and as the phase-space
integral of the commutator's symbol against the state.  A commutator of
self-adjoint factors is anti-self-adjoint, so the trace lies on the imaginary
axis; the scalar reported is its imaginary part, and the residual off the
axis is tracked as a consistency check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .oracle import (
    ROW_BAND,
    SUPPORT_TOL,
    Grid,
    GridOracle,
    SupportError,
    band_window,
    decay_window,
    matrix_symbol_bands,
)


@dataclass(frozen=True)
class GaussianAxisFactor:
    center_x: float
    center_xi: float
    width_x: float
    width_xi: float

    def x_profile(self, x):
        return np.exp(-0.5 * ((np.asarray(x) - self.center_x) / self.width_x) ** 2)

    def xi_profile(self, xi):
        return np.exp(-0.5 * ((np.asarray(xi) - self.center_xi) / self.width_xi) ** 2)


@dataclass(frozen=True)
class WeylObservable:
    """Separable Gaussian symbol p >= 0 on the oracle grid, normalized to trace one;
    its decay within the grid is checked once, where gaussian_state_symbol builds it."""

    grid: Grid
    axes: tuple  # one GaussianAxisFactor per dimension
    norm_const: float

    def trace_quadrature(self) -> float:
        """Grid quadrature of p over phase space: p is a product over axes of
        p_x(x) p_xi(xi), so it is norm_const times a product of profile sums,
        and no (centers x frequencies) table is formed."""
        grid = self.grid
        ax, xi = grid.axis(), grid.xi_axis()
        integral = self.norm_const
        for f in self.axes:
            px, pxi = f.x_profile(ax), f.xi_profile(xi)
            integral *= px.sum() * grid.spacing * pxi.sum() * grid.xi_spacing / (2.0 * math.pi)
        return float(integral)


def gaussian_state_symbol(grid: Grid, center_x, center_xi, width_x, width_xi) -> WeylObservable:
    """Gaussian phase-space state, normalized to trace one by grid quadrature."""
    center_x, center_xi, width_x, width_xi = (np.atleast_1d(np.asarray(a, dtype=float))
                                              for a in (center_x, center_xi, width_x, width_xi))
    for name, center in (("center_x", center_x), ("center_xi", center_xi)):
        if center.shape != (grid.dim,):
            raise ValueError(f"{name} needs one entry per grid axis ({grid.dim}), "
                             f"not {center.size}")
    for name, width in (("width_x", width_x), ("width_xi", width_xi)):
        if width.shape not in ((1,), (grid.dim,)):
            raise ValueError(f"{name} needs one entry, or one per grid axis ({grid.dim}), "
                             f"not {width.size}")
    width_x, width_xi = (np.broadcast_to(w, (grid.dim,)) for w in (width_x, width_xi))
    if np.any(width_x <= 0) or np.any(width_xi <= 0):
        raise ValueError("widths must be positive")
    axes = tuple(
        GaussianAxisFactor(float(cx), float(ck), float(wx), float(wk))
        for cx, ck, wx, wk in zip(center_x, center_xi, width_x, width_xi)
    )
    ax, xi = grid.axis(), grid.xi_axis()
    for factor in axes:
        px = factor.x_profile(ax)
        pxi = factor.xi_profile(xi)
        if max(px[0], px[-1]) > SUPPORT_TOL * px.max():
            raise SupportError("state leaks outside the position grid")
        if max(pxi[0], pxi[-1]) > SUPPORT_TOL * pxi.max():
            raise SupportError("state leaks outside the frequency grid")
    raw = WeylObservable(grid, axes, 1.0)
    return replace(raw, norm_const=1.0 / raw.trace_quadrature())


def op_weyl_matrix(p: WeylObservable) -> np.ndarray:
    """Quantize the symbol by discrete Fourier transform into the transpose of
    its Hermitian kernel matrix, in the order the traces read; ``.T`` is the kernel.

    The frequency quadrature spans the full band conjugate to the grid
    spacing (twice the frequency grid's band), so a symbol flat in frequency
    quantizes to a multiple of the identity.  The state's decay within the
    frequency grid is checked where it is built, by gaussian_state_symbol, so
    the matrix trace equals the quadrature of p, which is one by construction.
    Per axis the kernel is dx p_x((x_i + x_j) / 2) times the frequency
    quadrature at i - j: a Hankel times a Toeplitz matrix, read as strided
    views of their 1-d profiles, so the transpose only reverses a view.
    """
    grid = p.grid
    n = grid.n_grid
    dx = grid.spacing
    dxi = grid.xi_spacing
    xi_band = (np.arange(2 * n) - n) * dxi  # covers +-pi/spacing
    blocks = []
    for factor in p.axes:
        half_centers = (np.arange(2 * n - 1) + 1.0) * dx / 2.0 - grid.half_width
        px = factor.x_profile(half_centers)  # over index sums i + j
        # xi_k (x_i - x_j) = pi k (i - j) / n: the frequency quadrature at every
        # index difference is one length-2n inverse DFT, read at (i - j) mod 2n
        pxi = np.fft.ifftshift(factor.xi_profile(xi_band))
        quad = np.fft.ifft(pxi, norm="forward") * (dxi / (2.0 * math.pi))
        diffs = np.concatenate((quad[n + 1:], quad[:n]))  # at i - j = 1 - n, ..., n - 1
        toeplitz = sliding_window_view(diffs, n)[::-1]  # [i, j] at j - i
        block = np.multiply(dx, sliding_window_view(px, n), out=np.empty((n, n), complex))
        block *= toeplitz
        blocks.append(block)
    out = reduce(np.kron, blocks)
    out *= p.norm_const
    return out


@dataclass(frozen=True)
class CommutatorTraceResult:
    """Both trace routes for one time, plus consistency diagnostics."""

    t: float
    trace_matrix: float        # imaginary part of the matrix-route trace
    trace_symbol: float        # imaginary part of the symbol-route trace
    symbol_sup: float          # sup of |commutator symbol| on the checked window
    axis_residual: float       # largest real part seen on either route
    state_trace: float         # quadrature trace of the state, should be 1

    @property
    def route_gap(self) -> float:
        return abs(self.trace_matrix - self.trace_symbol)


def commutator_trace(oracle: GridOracle, p: WeylObservable, poly_coeffs,
                     site_axis: int, times) -> list:
    """Trace of [A, exp(-tH)] composed with the quantized state, both routes.

    A is the multiplication operator by a polynomial (degree at most four) of
    the coordinate along ``site_axis``.  The semigroup is a Kronecker product
    of factors (:class:`GridSemigroup`), and the state, a product over axes,
    is split into matching factors, each quantized once; the oracle's
    spectral factors serve every time.  The commutator replaces only the
    factor that holds ``site_axis``, and the traces and the symbol sup are
    products of per-factor results (:func:`_reduce`).  Returns one
    :class:`CommutatorTraceResult` per entry of ``times``.
    """
    grid = oracle.grid
    if p.grid != grid:
        raise ValueError("observable was built on a different grid")
    poly_coeffs = list(poly_coeffs)
    if not poly_coeffs:
        raise ValueError("observable polynomial needs at least one coefficient")
    if len(poly_coeffs) > 5:
        raise ValueError("observable polynomial degree is limited to four")
    if not 0 <= site_axis < grid.dim:
        raise ValueError("site_axis out of range")

    # the state's factors on the axes of the semigroup's factors, each quantized
    # once; the first carries the normalization
    axes = oracle.factor_grid
    dim, (k, axis) = axes.dim, divmod(site_axis, axes.dim)  # k: the factor holding site_axis
    factors = [WeylObservable(axes, p.axes[lo:lo + dim], p.norm_const if lo == 0 else 1.0)
               for lo in range(0, grid.dim, dim)]
    # transposed, so each trace reads it in memory order; the float view pairs
    # the real and imaginary parts, so one dot product gives both
    states = [op_weyl_matrix(q).view(float).reshape(-1, 2) for q in factors]
    state_trace = reduce(operator.mul, (q.trace_quadrature() for q in factors))
    a = np.polynomial.polynomial.polyval(axes.points()[:, axis], poly_coeffs)

    def trace_at(t):
        matrices = list(oracle.semigroup(t).factors)
        C = matrices[k]  # [A, M]: C_ij = (a_i - a_j) M_ij, in place in M by bands of rows
        if sum(M is C for M in matrices) > 1:  # M serves another axis too
            C = matrices[k] = C.copy()
        for lo in range(0, len(a), ROW_BAND):
            band = slice(lo, lo + ROW_BAND)
            C[band] *= np.subtract.outer(a[band], a)
        centers = decay_window(matrices, grid, t)
        tr_matrix, tr_symbol, sup = (reduce(operator.mul, r) for r in zip(*(
            _reduce(X, q, state, centers) for X, q, state in zip(matrices, factors, states))))
        return CommutatorTraceResult(
            t=float(t),
            trace_matrix=tr_matrix.imag,
            trace_symbol=tr_symbol.imag,
            symbol_sup=float(sup),
            axis_residual=max(abs(tr_matrix.real), abs(tr_symbol.real)),
            state_trace=state_trace,
        )

    return [trace_at(t) for t in times]


def _reduce(C, q: WeylObservable, op_pairs, centers):
    """Both traces of a kernel factor C against the state factor q (quantized and
    transposed in ``op_pairs``), and the sup of |symbol of C| on ``centers``.

    The symbol is reduced as it streams in bands (:func:`matrix_symbol_bands`).
    q's table is norm * prod over axes of p_x(x) p_xi(xi), so a band is paired
    with it by contracting its axes, last first, with those profiles.
    """
    grid = q.grid
    x_profiles = [f.x_profile(grid.axis()) for f in q.axes]
    profiles = [f.xi_profile(grid.xi_axis()) for f in q.axes][::-1] + x_profiles[:0:-1]
    tr_matrix = complex(*(C.ravel() @ op_pairs))
    symbol, sup = 0j, 0.0
    for lo, values in matrix_symbol_bands(C, grid):
        symbol += x_profiles[0][lo:lo + len(values)] @ reduce(operator.matmul, profiles, values)
        _, window = band_window(lo, values, centers)
        if window.size:
            sup = max(sup, np.abs(window).max())
    cell = (grid.spacing * grid.xi_spacing / (2.0 * math.pi)) ** grid.dim
    return tr_matrix, q.norm_const * symbol * cell, sup


@dataclass(frozen=True)
class ScalingFit:
    """Log-log slope of |trace| against time, and the implied sqrt-time constant."""

    slope: float
    coefficient: float  # max over points of |trace| / sqrt(t)
    n_points: int


def scaling_fit(points) -> ScalingFit:
    """Least-squares slope of log|trace| against log t.

    Requires at least five points with nonzero traces spanning two decades of
    time; the coefficient makes |trace| <= coefficient * sqrt(t) tight on the
    supplied sweep.
    """
    cleaned = [(float(t), abs(float(v))) for t, v in points if float(v) != 0.0]
    if len(cleaned) < 5:
        raise ValueError("need at least five nonzero points")
    ts = np.array([t for t, _ in cleaned])
    vs = np.array([v for _, v in cleaned])
    if ts.max() / ts.min() < 100.0:
        raise ValueError("time values must span at least two decades")
    slope, _ = np.polyfit(np.log(ts), np.log(vs), 1)
    coefficient = float((vs / np.sqrt(ts)).max())
    return ScalingFit(float(slope), coefficient, len(cleaned))
