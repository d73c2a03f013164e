"""Workload definitions: inputs from the seed, and one correctness gate per op.

Every op is a (subcommand, config) pair handed to ``weylfk.cli.run_config``.
Sizes are fixed; the seed sets the Monte Carlo seeds, the phase points and
the commutator state centre.  ``tiny=True`` shrinks every size so the
benchmark's own smoke test runs each workload in seconds; the gates are the
same.

Why these three workloads:

* ``mc_interacting`` -- potential evaluation dominates the estimator.  The
  16-site mean-field op exposes the ``pairs x steps x n^2`` working set
  (about 2.8 GB peak with two workers).  Mean field at 32 sites is left out:
  it peaked at 5.4 GB with one worker and was killed for lack of memory with
  two on a 7 GB machine; the 16-site op shows the same scaling through
  ``peak_rss_mb``.
* ``mc_free`` -- the zero potential, so path sampling, phase and reduction
  dominate; a single-threaded baseline that potential or oracle work must
  not move.
* ``oracle_grid`` -- the dense 4096^2 ``eigh`` and the 2-d Python loops of
  the oracle; the Monte Carlo layers are idle.  The coupled n=32 oracle
  (spacing 0.5) has a pairing residual of about 2.4e-4, against 1.9e-14 at
  spacing 0.25.  That is grid bias, reported per run as a diagnostic, not
  gated and not folded into a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

T = 0.5  # time horizon of every op
ROUNDOFF = 1e-12  # relative tolerance for identities exact up to rounding
PAIRING_MAX_SPACING = 0.25  # grid spacing up to which the pairing identity is gated


@dataclass
class Op:
    """One CLI call: label, subcommand, config, and the gate on its output."""

    label: str
    subcommand: str
    config: dict
    gate: object  # callable(op, code, results, csv_rows) -> list of failure strings
    estimate: bool = False  # counts towards the Monte Carlo time-to-accuracy
    reference: dict = field(default_factory=dict)  # values the gate compares against


@dataclass
class Workload:
    name: str
    workers: int
    ops: list
    repeat: tuple  # labels re-run once per invocation, outside the timed runs
    repeat_workers: int


# ---------------------------------------------------------------------------
# gates: each returns the list of reasons the op's output is wrong


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _exit_ok(code) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def gate_interacting_estimate(op, code, results, csv_rows):
    """A finite value with |Re u| <= 1 + 3 se and |Im u| <= 4 se: the Weyl
    symbol of a self-adjoint operator is real and bounded by one."""
    out = _exit_ok(code)
    re, im, se = results.get("value_re"), results.get("value_im"), results.get("stderr")
    if not _finite(re, im, se):
        return out + [f"non-finite estimate {re!r}, {im!r}, {se!r}"]
    if abs(re) > 1.0 + 3.0 * se:
        out.append(f"|Re u| = {abs(re):.6g} exceeds 1 + 3 se")
    if abs(im) > 4.0 * se:
        out.append(f"|Im u| = {abs(im):.6g} exceeds 4 se = {4 * se:.6g}")
    return out


def free_symbol(xi, t) -> float:
    """exp(-t xi^2): the free symbol in the generator-Laplacian convention."""
    return math.exp(-t * xi * xi)


def gate_free_sweep(op, code, results, csv_rows):
    """Every value of the sweep within 4 se (+1e-12) of exp(-t xi^2)."""
    out = _exit_ok(code)
    t = op.config["t"]
    values = [(op.config["xi"][0], results.get("value_re"), results.get("value_im"),
               results.get("stderr"))]
    values += [tuple(row) for row in (csv_rows or [])]
    expected_rows = op.config["xi_sweep"]["count"]
    if len(values) != expected_rows + 1:
        out.append(f"{len(values) - 1} sweep rows, expected {expected_rows}")
    for xi, re, im, se in values:
        if not _finite(xi, re, im, se):
            out.append(f"non-finite sweep row at xi={xi!r}")
            continue
        err = abs(complex(re, im) - free_symbol(xi, t))
        if err > 4.0 * se + 1e-12:
            out.append(f"xi={xi:.6g}: |u - exp(-t xi^2)| = {err:.3g} > 4 se = {4 * se:.3g}")
    return out


def gate_moments(op, code, results, csv_rows):
    out = _exit_ok(code)
    dev = results.get("deviation_in_stderr")
    if not _finite(dev) or dev > 4.0:
        out.append(f"deviation_in_stderr {dev!r} > 4")
    return out


def gate_mixed_deriv(op, code, results, csv_rows):
    out = _exit_ok(code)
    if results.get("violations") != 0:
        out.append(f"{results.get('violations')!r} bound violations")
    if results.get("bound_is_size_independent") is not True:
        out.append("bound depends on the system size")
    return out


def _oracle_identities(results) -> list:
    out = []
    trace, integral = results.get("trace"), results.get("symbol_integral")
    sup = results.get("max_abs_symbol")
    if not _finite(trace, integral, sup):
        return [f"non-finite oracle output {trace!r}, {integral!r}, {sup!r}"]
    if abs(trace - integral) > ROUNDOFF * max(1.0, abs(trace)):
        out.append(f"|trace - symbol_integral| = {abs(trace - integral):.3g} above roundoff")
    if sup > 1.0:
        out.append(f"max_abs_symbol {sup!r} > 1")
    return out


def gate_oracle(op, code, results, csv_rows):
    """Trace identity and unit bound; the trace against an independent
    reference when the op carries one; and the pairing identity where the
    grid is fine enough for it to hold to roundoff.  At coarser spacing the
    pairing residual is grid bias (2.4e-4 at spacing 0.5 against 1.9e-14 at
    0.25): it is reported as a diagnostic, not gated."""
    out = _exit_ok(code) + _oracle_identities(results)
    expected = op.reference.get("trace")
    trace = results.get("trace")
    if expected is not None and _finite(trace) and abs(trace - expected) > 1e-10 * abs(expected):
        out.append(f"trace {trace!r} differs from the 1-d reference squared {expected!r}")
    grid = op.config["grid"]
    if 2.0 * grid["half_width"] / grid["n_grid"] <= PAIRING_MAX_SPACING:
        residual = results.get("pairing_residual")
        if not _finite(residual) or residual > 1e-10:
            out.append(f"pairing_residual {residual!r} > 1e-10")
    return out


def gate_commutator(op, code, results, csv_rows):
    out = _exit_ok(code)
    points = results.get("points") or []
    if len(points) != len(op.config["t_list"]):
        out.append(f"{len(points)} commutator points, expected {len(op.config['t_list'])}")
    for p in points:
        for key in ("route_gap", "axis_residual"):
            v = p.get(key)
            if not _finite(v) or v > 1e-12:
                out.append(f"t={p.get('t')!r}: {key} {v!r} > 1e-12")
    st = results.get("state_trace")
    if not _finite(st) or abs(st - 1.0) > 1e-12:
        out.append(f"state_trace {st!r} not within 1e-12 of 1")
    return out


# ---------------------------------------------------------------------------
# independent reference for the separable oracle


def harmonic_trace_1d(n_grid, half_width, t) -> float:
    """tr exp(-tH) for H = -d^2/dx^2 + x^2 on a cell-centred Dirichlet grid,
    built here independently so it shares no code with the oracle."""
    dx = 2.0 * half_width / n_grid
    x = (np.arange(n_grid) + 0.5) * dx - half_width
    H = np.diag(2.0 / dx**2 + x * x)
    off = np.full(n_grid - 1, -1.0 / dx**2)
    H += np.diag(off, 1) + np.diag(off, -1)
    return float(np.exp(-t * np.linalg.eigvalsh(H)).sum())


# ---------------------------------------------------------------------------
# workloads


def _sites(n):
    return [[i] for i in range(n)]


def _mean_field(n):
    return {"variant": "mean_field", "sites": list(range(n)), "G": {"name": "lorentzian"}}


def _point(rng, n):
    return ([float(v) for v in rng.uniform(-1.0, 1.0, n)],
            [float(v) for v in rng.uniform(-1.0, 1.0, n)])


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def mc_interacting(seed, nproc, tiny=False) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    workers = min(2, nproc)
    paths_a, paths = (512, 512) if tiny else (32768, 20000)
    ops = []
    x, xi = _point(rng, 16)
    ops.append(Op("mean_field_16", "estimate", {
        "potential": _mean_field(16), "x": x, "xi": xi, "t": T, "seed": _seed(rng),
        "n_paths": paths_a, "n_steps": 32, "emit_metadata": False,
    }, gate_interacting_estimate, estimate=True))
    x, xi = _point(rng, 32)
    ops.append(Op("chain_32", "estimate", {
        "potential": {"variant": "nearest_neighbor", "d": 1, "sites": _sites(32),
                      "F": {"name": "harmonic"}, "G": {"name": "lorentzian"}},
        "x": x, "xi": xi, "t": T, "seed": _seed(rng), "n_paths": paths, "n_steps": 32,
        "emit_metadata": False,
    }, gate_interacting_estimate, estimate=True))
    x, xi = _point(rng, 8)
    ops.append(Op("mixed_alpha_8", "estimate", {
        "potential": _mean_field(8), "x": x, "xi": xi, "t": T, "seed": _seed(rng),
        "alpha": "0:1,1:1", "n_paths": paths, "n_steps": 32, "emit_metadata": False,
    }, gate_interacting_estimate, estimate=True))
    verify = {
        "suite": "mixed-deriv", "seed": _seed(rng),
        "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
        "lambda_sizes": [2, 4] if tiny else [2, 4, 8, 16], "emit_metadata": False,
    }
    if tiny:
        verify["n_paths"] = 256
    ops.append(Op("verify_mixed_deriv", "verify", verify, gate_mixed_deriv))
    # the worker-count invariant: op (c) again at one worker must hash the same
    return Workload("mc_interacting", workers, ops, ("mixed_alpha_8",), 1)


def mc_free(seed, nproc, tiny=False) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    x, xi = _point(rng, 1)
    ops = [
        Op("free_sweep", "estimate", {
            "potential": {"variant": "zero", "sites": [0]}, "x": x, "xi": xi, "t": T,
            "seed": _seed(rng), "n_paths": 2000 if tiny else 200000, "n_steps": 32,
            "xi_sweep": {"site_index": 0, "start": -2.0, "stop": 2.0,
                         "count": 4 if tiny else 20},
            "emit_metadata": False,
        }, gate_free_sweep, estimate=True),
        Op("moments", "moments", {
            "beta": "0:2,1:1", "t": T, "seed": _seed(rng),
            "n_paths": 20000 if tiny else 2000000, "emit_metadata": False,
        }, gate_moments),
    ]
    return Workload("mc_free", 1, ops, ("moments",), 1)


def oracle_grid(seed, nproc, tiny=False) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    n_sep = 32 if tiny else 64
    two_sites = _sites(2)
    ops = [
        Op("separable_64", "oracle", {
            "potential": {"variant": "nearest_neighbor", "d": 1, "sites": two_sites,
                          "F": {"name": "harmonic"}, "G": {"name": "zero"}},
            "grid": {"dim": 2, "n_grid": n_sep, "half_width": 8.0}, "t": T,
            "emit_metadata": False,
        }, gate_oracle, reference={"trace": harmonic_trace_1d(n_sep, 8.0, T) ** 2}),
        Op("coupled_32", "oracle", {
            "potential": {"variant": "nearest_neighbor", "d": 1, "sites": two_sites,
                          "F": {"name": "harmonic"}, "G": {"name": "lorentzian"}},
            "grid": {"dim": 2, "n_grid": 32, "half_width": 8.0}, "t": T,
            "emit_metadata": False,
        }, gate_oracle),
        Op("commutator_1024", "commutator", {
            "potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0]],
                          "F": {"name": "harmonic"}, "G": {"name": "zero"}},
            "grid": {"dim": 1, "n_grid": 512 if tiny else 1024, "half_width": 10.0},
            "state": {"center_x": [float(rng.uniform(-1, 1))],
                      "center_xi": [float(rng.uniform(-1, 1))],
                      "width_x": [1.0], "width_xi": [1.0]},
            "t_list": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0],
            "emit_metadata": False,
        }, gate_commutator),
    ]
    return Workload("oracle_grid", 1, ops, ("coupled_32", "commutator_1024"), 1)


_WORKLOADS = {"mc_interacting": mc_interacting, "mc_free": mc_free, "oracle_grid": oracle_grid}


def build(name, seed, nproc, tiny=False) -> Workload:
    return _WORKLOADS[name](seed, nproc, tiny)
