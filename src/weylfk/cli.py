"""Command-line entry point: estimation, oracle, verification, experiments.

One JSON document (inline or a file path) configures each subcommand.  All
defaults are materialized into the config echoed next to the results, numeric
output is serialized with 17 significant digits, files are written atomically,
and reruns of the same config are byte-identical at any worker count;
timestamps live in an optional metadata block.  The schemas check the config's
own keys; each potential or family description is checked by its builder.

Exit codes: 0 success, 1 configuration error (a NaN or infinite number, an
integer too large for a float, an unreadable config, an unwritable output
path or an array too large to allocate too), 2 numerical failure (decay,
divergence, support, NaN results, an eigensolver that does not converge,
arithmetic overflow or division by zero), 3 bound violation from the verify
suites.
"""

from __future__ import annotations

import argparse
import copy
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import jsonschema
import numpy as np

from . import __version__
from .bounds import (
    DivergentIntegralError,
    check_l1_bound,
    check_mixed_derivative_bound,
    class_membership,
    default_sweep_potentials,
    linf_sweep,
    xi_derivative_sweep,
)
from .brownian import (
    VariancePreset,
    abs_moment_constant,
    absolute_moment_estimate,
    absolute_moment_product,
)
from .commutator import commutator_trace, gaussian_state_symbol, scaling_fit
from .faadibruno import mixed_derivative_bound
from .multiindex import MultiIndex, from_text
from .oracle import (
    DecayError,
    Grid,
    GridOracle,
    SupportError,
    gaussian_test_functions,
)
from .potentials import family_from_json, potential_from_json
from .symbol_estimator import PhasePoint, estimate_mixed_derivative

WORKERS_ENV = "WEYLFK_WORKERS"


class ConfigError(ValueError):
    pass


class NonFiniteOutputError(ValueError):
    """A result that must be serialized is NaN: a numerical failure, not bad config."""


# ---------------------------------------------------------------------------
# deterministic serialization

def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        raise NonFiniteOutputError("NaN in output")
    if math.isinf(x):
        return "1e999" if x > 0 else "-1e999"  # round-trips to infinity
    return format(x, ".17g")


def dumps(obj, indent=0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return format_number(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        body = ",\n".join(inner + dumps(v, indent + 2) for v in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}"
            for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_atomic(path: str, text: str):
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as err:
        if os.path.exists(tmp):  # written, but not moved onto the path
            os.remove(tmp)
        raise ConfigError(f"cannot write {path}: {err.strerror}") from err


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# schemas

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "half_width": {"type": "number", "exclusiveMinimum": 0, "default": 10.0},
        "n_grid": {"type": "integer", "minimum": 16, "default": 512},
        "dim": {"enum": [1, 2], "default": 1},
    },
    "additionalProperties": False,
    "default": {},
}

_PRESET_SCHEMA = {
    "enum": ["standard_wiener", "generator_laplacian"],
    "default": "generator_laplacian",
}

_OUTPUT_PROPS = {
    "output": {"type": ["string", "null"], "default": None},
    "csv_output": {"type": ["string", "null"], "default": None},
    "emit_metadata": {"type": "boolean", "default": True},
}

SCHEMAS = {
    "estimate": {
        "type": "object",
        "properties": {
            "potential": {"type": "object"},
            "x": {"type": "array", "items": {"type": "number"}},
            "xi": {"type": "array", "items": {"type": "number"}},
            "t": {"type": "number", "exclusiveMinimum": 0},
            "alpha": {"type": "string", "default": ""},
            "beta": {"type": "string", "default": ""},
            "n_paths": {"type": "integer", "minimum": 2, "default": 20000},
            "n_steps": {"type": "integer", "minimum": 1, "default": 32},
            "seed": {"type": "integer", "minimum": 0},
            "preset": _PRESET_SCHEMA,
            "chunk_size": {"type": "integer", "minimum": 1, "default": 4096},
            "xi_sweep": {
                "type": ["object", "null"],
                "default": None,
                "properties": {
                    "site_index": {"type": "integer", "minimum": 0},
                    "start": {"type": "number"},
                    "stop": {"type": "number"},
                    "count": {"type": "integer", "minimum": 2},
                },
                "required": ["site_index", "start", "stop", "count"],
                "additionalProperties": False,
            },
            **_OUTPUT_PROPS,
        },
        "required": ["potential", "x", "xi", "t", "seed"],
        "additionalProperties": False,
    },
    "moments": {
        "type": "object",
        "properties": {
            "beta": {"type": "string"},
            "t": {"type": "number", "exclusiveMinimum": 0},
            "preset": _PRESET_SCHEMA,
            "n_paths": {"type": "integer", "minimum": 2, "default": 100000},
            "seed": {"type": "integer", "minimum": 0},
            **_OUTPUT_PROPS,
        },
        "required": ["beta", "t", "seed"],
        "additionalProperties": False,
    },
    "oracle": {
        "type": "object",
        "properties": {
            "potential": {"type": "object"},
            "grid": _GRID_SCHEMA,
            "t": {"type": "number", "exclusiveMinimum": 0},
            "region": {
                "anyOf": [{"enum": ["auto", "full"]}, {"type": "number", "exclusiveMinimum": 0}],
                "default": "auto",
            },
            **_OUTPUT_PROPS,
        },
        "required": ["potential", "t"],
        "additionalProperties": False,
    },
    "bound": {
        "type": "object",
        "properties": {
            "alpha": {"type": "string", "default": ""},
            "beta": {"type": "string", "default": ""},
            "m": {"type": "integer", "minimum": 0},
            "t": {"type": "number", "exclusiveMinimum": 0},
            "c_m": {"type": "number", "minimum": 0},
            "preset": _PRESET_SCHEMA,
            **_OUTPUT_PROPS,
        },
        "required": ["m", "t", "c_m"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "suite": {"enum": ["linf", "xi-deriv", "l1", "mixed-deriv", "class"]},
            "seed": {"type": "integer", "minimum": 0},
            "preset": _PRESET_SCHEMA,
            "n_points": {"type": "integer", "minimum": 1, "default": 40},
            "n_paths": {"type": "integer", "minimum": 2, "default": 4096},
            "n_steps": {"type": "integer", "minimum": 1, "default": 24},
            "t": {"type": "number", "exclusiveMinimum": 0, "default": 0.5},
            "betas": {
                "type": "array",
                "items": {"type": "string"},
                "default": ["0:1", "0:2"],
            },
            "potential": {"type": "object"},
            "family": {"type": "object"},
            "m": {"type": "integer", "minimum": 1, "default": 1},
            "alpha": {"type": "string", "default": "0:1"},
            "beta": {"type": "string", "default": ""},
            "lambda_sizes": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
                "default": [2, 4, 8],
            },
            "lambda_size": {"type": "integer", "minimum": 2, "default": 4},
            "xi": {
                "type": "array",
                # a number, or one coordinate per grid dimension
                "items": {"type": ["number", "array"], "items": {"type": "number"}},
                "default": [-2.0, -1.0, 0.0, 1.0, 2.0],
            },
            "grid": _GRID_SCHEMA,
            **_OUTPUT_PROPS,
        },
        "required": ["suite", "seed"],
        "additionalProperties": False,
    },
    "commutator": {
        "type": "object",
        "properties": {
            "potential": {"type": "object"},
            "grid": _GRID_SCHEMA,
            "poly": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 1,
                "maxItems": 5,
                "default": [0.0, 1.0],
            },
            "site_axis": {"type": "integer", "minimum": 0, "default": 0},
            "state": {
                "type": "object",
                "properties": {
                    "center_x": {"type": "array", "items": {"type": "number"}},
                    "center_xi": {"type": "array", "items": {"type": "number"}},
                    "width_x": {"type": "array", "items": {"type": "number"}},
                    "width_xi": {"type": "array", "items": {"type": "number"}},
                },
                "required": ["center_x", "center_xi", "width_x", "width_xi"],
                "additionalProperties": False,
            },
            "t_list": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 1,
                "default": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0],
            },
            **_OUTPUT_PROPS,
        },
        "required": ["potential", "state"],
        "additionalProperties": False,
    },
}


def apply_defaults(schema: dict, config):
    """Materialize schema defaults into a copy of the config."""
    if schema.get("type") == "object" and isinstance(config, dict):
        out = dict(config)
        for key, sub in schema.get("properties", {}).items():
            if key in out:
                out[key] = apply_defaults(sub, out[key])
            elif "default" in sub:
                out[key] = apply_defaults(sub, copy.deepcopy(sub["default"]))
        return out
    return config


def load_config(text_or_path: str) -> dict:
    text = text_or_path.strip()
    if not text.startswith("{"):
        try:
            with open(text) as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read config file {text}: {err.strerror}") from err
    try:
        config = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


@functools.cache
def _validator(subcommand: str):
    """The subcommand's schema validator, built on first use, to which a NaN or
    infinite float is not a number; the schemas themselves are checked against
    the metaschema by the test suite."""
    schema = SCHEMAS[subcommand]
    cls = jsonschema.validators.validator_for(schema)
    is_type = cls.TYPE_CHECKER.is_type
    types = cls.TYPE_CHECKER.redefine("number", lambda checker, v: is_type(v, "number") and (
        not isinstance(v, float) or math.isfinite(v)))
    return jsonschema.validators.extend(cls, type_checker=types)(schema)


def validate_config(subcommand: str, config: dict) -> dict:
    resolved = apply_defaults(SCHEMAS[subcommand], config)
    err = jsonschema.exceptions.best_match(_validator(subcommand).iter_errors(resolved))
    if err is not None:
        field = err.json_path if err.json_path != "$" else "$ (top level)"
        raise ConfigError(f"invalid config at {field}: {err.message}") from err
    return resolved


def _check_integer_sizes(obj, path):
    """Raise ConfigError naming the JSON path of the first integer in obj too large for a float."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _check_integer_sizes(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _check_integer_sizes(value, f"{path}[{i}]")
    elif isinstance(obj, int) and abs(obj) > sys.float_info.max:
        raise ConfigError(f"invalid config at {path}: integer too large for a float")


def _preset(config) -> VariancePreset:
    return VariancePreset[config["preset"].upper()]


def _parse_index(text: str, what: str) -> MultiIndex:
    try:
        return from_text(text)
    except ValueError as err:
        raise ConfigError(f"invalid {what} multi-index {text!r}: {err}") from err


# ---------------------------------------------------------------------------
# subcommands

def cmd_estimate(config, n_workers):
    V = potential_from_json(config["potential"])
    alpha, beta = (_parse_index(config[key], key) for key in ("alpha", "beta"))
    # row 0 is the configured frequency, rows 1.. the sweep; one path set serves all
    xi = np.array([config["xi"]], dtype=float)
    sweep = config["xi_sweep"]
    if sweep is not None:
        if sweep["site_index"] >= min(V.n_sites, xi.shape[1]):
            raise ConfigError("xi_sweep.site_index out of range")
        grid_vals = np.linspace(sweep["start"], sweep["stop"], sweep["count"])
        xi = np.repeat(xi, 1 + len(grid_vals), axis=0)
        xi[1:, sweep["site_index"]] = grid_vals
    est = estimate_mixed_derivative(
        V, PhasePoint(np.array(config["x"]), xi), config["t"], config["n_paths"],
        config["n_steps"], config["seed"], alpha=alpha, beta=beta,
        variance=_preset(config), chunk_size=config["chunk_size"], n_workers=n_workers,
    )
    values, stderrs = est.value.tolist(), est.stderr.tolist()
    results = {
        "value_re": values[0].real,
        "value_im": values[0].imag,
        "stderr": stderrs[0],
        "n_paths": est.n_paths,
        "n_steps": est.n_steps,
        "preset": est.variance_preset,
        "t": est.t,
    }
    csv = None
    if sweep is not None:
        rows = [(v, u.real, u.imag, se)
                for v, u, se in zip(grid_vals, values[1:], stderrs[1:])]
        csv = (["xi", "value_re", "value_im", "stderr"], rows)
    return results, csv, 0


def cmd_moments(config, n_workers):
    beta = _parse_index(config["beta"], "beta")
    preset = _preset(config)
    t = config["t"]
    exact = absolute_moment_product(beta, t, preset)
    rng = np.random.default_rng(np.random.SeedSequence(config["seed"]))
    mean, stderr = absolute_moment_estimate(rng, beta, config["n_paths"], t, preset)
    results = {
        "beta": beta.to_text(),
        "exact": exact,
        "sample_mean": mean,
        "sample_stderr": stderr,
        "deviation_in_stderr": abs(mean - exact) / stderr if stderr else 0.0,
        "per_order_constants": {
            str(order): abs_moment_constant(order)
            for order in sorted({order for _, order in beta.entries})
        },
        "preset": preset.tag,
    }
    return results, None, 0


def cmd_oracle(config, n_workers):
    V = potential_from_json(config["potential"])
    grid = Grid(**config["grid"])
    oracle = GridOracle(V, grid)
    t = config["t"]
    S = oracle.semigroup(t)
    f, g = gaussian_test_functions(grid)
    # one pass over the symbol gives the window, its integral and the pairing
    table = oracle.symbol(S, config["region"], pairing=((f,) * grid.dim, (g,) * grid.dim))
    values = table.values
    results = {
        "t": t,
        "trace": S.trace,
        "symbol_integral": table.symbol_integral,
        "max_abs_symbol": float(max(values.max(), -values.min())),
        "max_imag_symbol": table.max_imag,
        "pairing_residual": table.pairing_residual,
        "n_centers": int(values.shape[0]),
    }
    csv = None
    if grid.dim == 1:
        rows = [
            (x, xi, table.values[i, k])
            for i, x in enumerate(table.x)
            for k, xi in enumerate(table.xi)
        ]
        csv = (["x", "xi", "u"], rows)
    return results, csv, 0


def cmd_bound(config, n_workers):
    alpha = _parse_index(config["alpha"], "alpha")
    beta = _parse_index(config["beta"], "beta")
    preset = _preset(config)
    value = mixed_derivative_bound(
        alpha, beta, config["m"], config["t"], config["c_m"], preset
    )
    results = {
        "bound": value,
        "alpha": alpha.to_text(),
        "beta": beta.to_text(),
        "m": config["m"],
        "t": config["t"],
        "c_m": config["c_m"],
        "preset": preset.tag,
    }
    return results, None, 0


def cmd_verify(config, n_workers):
    suite = config["suite"]
    mc = dict(n_paths=config["n_paths"], n_steps=config["n_steps"],
              seed=config["seed"], variance=_preset(config), n_workers=n_workers)
    extra_results = {}
    if suite == "linf":
        reports = [linf_sweep(config["n_points"], **mc)]
    elif suite == "xi-deriv":
        betas = [_parse_index(text, "beta") for text in config["betas"]]
        reports = xi_derivative_sweep(
            _verify_potential(config, "lorentzian"), betas, config["t"],
            config["n_points"], **mc,
        )
    elif suite == "l1":
        reports = [check_l1_bound(_verify_potential(config, "harmonic"), config["t"],
                                  config["xi"], Grid(**config["grid"]))]
    elif suite == "mixed-deriv":
        reports = check_mixed_derivative_bound(
            _family(config), config["m"], config["t"],
            _parse_index(config["alpha"], "alpha"),
            _parse_index(config["beta"], "beta"),
            config["lambda_sizes"], **mc,
        )
        bound_values = [r.extra["bound"] for r in reports]
        extra_results["bound_values"] = bound_values
        extra_results["bound_is_size_independent"] = bool(
            max(bound_values) == min(bound_values)
        )
    else:  # class
        params, reports = class_membership(
            _family(config), config["m"], config["t"],
            lambda_size=config["lambda_size"], **mc,
        )
        extra_results["class_params"] = asdict(params)
    results = {
        "suite": suite,
        "reports": [r.to_json() for r in reports],
        "violations": sum(r.violation for r in reports),
        **extra_results,
    }
    code = 3 if any(r.violation for r in reports) else 0
    return results, None, code


def _verify_potential(config, default):
    if "potential" in config:
        return potential_from_json(config["potential"])
    return default_sweep_potentials()[default]


def _family(config):
    if "family" not in config:
        raise ConfigError("this suite requires a 'family' entry")
    return family_from_json(config["family"])


def cmd_commutator(config, n_workers):
    grid = Grid(**config["grid"])
    state_cfg = config["state"]
    state = gaussian_state_symbol(
        grid, state_cfg["center_x"], state_cfg["center_xi"],
        state_cfg["width_x"], state_cfg["width_xi"],
    )
    oracle = GridOracle(potential_from_json(config["potential"]), grid)
    traces = commutator_trace(oracle, state, config["poly"], config["site_axis"],
                              config["t_list"])
    try:
        fit = asdict(scaling_fit([(r.t, r.trace_matrix) for r in traces]))
    except ValueError:
        fit = None
    results = {
        "state_trace": traces[0].state_trace,
        "points": [
            {
                "t": r.t,
                "trace_matrix": r.trace_matrix,
                "trace_symbol": r.trace_symbol,
                "route_gap": r.route_gap,
                "symbol_sup": r.symbol_sup,
                "axis_residual": r.axis_residual,
            }
            for r in traces
        ],
        "fit": fit,
    }
    csv_rows = [
        (r.t, r.trace_matrix, r.trace_symbol, r.symbol_sup,
         (fit["coefficient"] * math.sqrt(r.t)) if fit else 0.0)
        for r in traces
    ]
    csv = (["t", "trace_matrix", "trace_symbol", "symbol_sup", "sqrt_bound"], csv_rows)
    return results, csv, 0


COMMANDS = {
    "estimate": cmd_estimate,
    "moments": cmd_moments,
    "oracle": cmd_oracle,
    "bound": cmd_bound,
    "verify": cmd_verify,
    "commutator": cmd_commutator,
}


def run_config(subcommand: str, config: dict, n_workers: int = 1):
    """Validate, dispatch, and write artifacts; returns (exit code, output doc)."""
    resolved = validate_config(subcommand, config)
    _check_integer_sizes(resolved, "$")
    results, csv, code = COMMANDS[subcommand](resolved, n_workers)
    doc = {"subcommand": subcommand, "config": resolved, "results": results}
    if resolved.get("emit_metadata", True):
        doc["metadata"] = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "version": __version__,
        }
    text = dumps(doc) + "\n"
    if resolved.get("output"):
        write_atomic(resolved["output"], text)
    if csv is not None and resolved.get("csv_output"):
        write_csv(resolved["csv_output"], csv[0], csv[1])
    return code, doc


def _env_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weylfk",
        description="Path-integral phase-space symbols of semigroups, "
                    "with oracle checks and bound verification",
    )
    parser.add_argument(
        "--workers", type=int,
        help=f"worker threads for chunked estimation, default ${WORKERS_ENV} or 1, "
             "at most the CPU count (results do not depend on this)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="JSON config: inline document or file path")
    args = parser.parse_args(argv)
    try:
        workers = args.workers if args.workers is not None else _env_workers()
        workers = max(1, min(workers, os.cpu_count() or 1))  # results do not depend on it
        config = load_config(args.config)
        code, doc = run_config(args.subcommand, config, workers)
        print(dumps(doc))
        return code
    except (DecayError, DivergentIntegralError, SupportError, NonFiniteOutputError,
            np.linalg.LinAlgError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
