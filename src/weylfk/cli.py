"""Command-line entry point: estimation, oracle, verification, experiments.

One JSON document (inline or a file path) configures each subcommand.  Every
JSON Schema, one per subcommand and per verify suite, is built from one
property table that states each key's rule once; one walk over a schema fills
in the defaults and reports the config's first violation in jsonschema's
words, so only numpy is imported.  A potential, family or scalar-function description is
checked by its builder and echoed as given, without the defaults the builder
applies (amplitude, width, include_diagonal, a chain's F); every other default
is written into the config echoed next to the results.  Numeric output is
serialized with 17 significant digits, files are written atomically, and reruns
of the same config are byte-identical at any worker count; timestamps live in
an optional metadata block.

Exit codes: 0 success; 1 configuration error, any ValueError or MemoryError
(a bad or non-finite config value, an unreadable config, an unwritable output
path or stdout, an array too large to allocate); 2 numerical failure, any
ArithmeticError or numpy LinAlgError (decay, divergence, support, NaN results,
overflow, underflowed path weights, an unconverged eigensolver); 3 a bound
violation from the verify suites, whose Monte Carlo suites write one CSV row
per probe.  Each failure class in weylfk derives from one of ArithmeticError
and ValueError, so its base decides its code; a failure prints one stderr
line, as numpy's RuntimeWarnings are not printed.
"""

from __future__ import annotations

import argparse
import copy
import datetime
import json
import math
import numbers
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import (
    check_l1_bound,
    check_probes,
    class_probes,
    default_sweep_potentials,
    linf_probes,
    mixed_derivative_probes,
    xi_derivative_probes,
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
from .oracle import Grid, GridOracle, gaussian_test_functions
from .potentials import family_from_json, potential_from_json
from .symbol_estimator import PhasePoint, estimate_mixed_derivative

WORKERS_ENV = "WEYLFK_WORKERS"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization

def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        raise FloatingPointError("NaN in output")
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

# every config key with its rule, each stated once; the verify suites' keys in their echo order
_PROPS = {
    "suite": {"enum": ["linf", "xi-deriv", "l1", "mixed-deriv", "class"]},
    "seed": {"type": "integer", "minimum": 0},
    "preset": {"enum": ["standard_wiener", "generator_laplacian"],
               "default": "generator_laplacian"},
    "n_points": {"type": "integer", "minimum": 1, "default": 40},
    "n_paths": {"type": "integer", "minimum": 2, "default": 4096},
    "n_steps": {"type": "integer", "minimum": 1, "default": 24},
    "t": {"type": "number", "exclusiveMinimum": 0, "default": 0.5},
    "betas": {"type": "array", "items": {"type": "string"}, "minItems": 1,
              "default": ["0:1", "0:2"]},
    "potential": {"type": "object"},
    "family": {"type": "object"},
    "m": {"type": "integer", "minimum": 1, "default": 1},
    "alpha": {"type": "string", "default": ""},
    "beta": {"type": "string", "default": ""},
    "lambda_sizes": {"type": "array", "items": {"type": "integer", "minimum": 1},
                     "minItems": 1, "default": [2, 4, 8]},
    "lambda_size": {"type": "integer", "minimum": 2, "default": 4},
    "xi": {
        "type": "array",
        # a number, or one coordinate per grid dimension
        "items": {"type": ["number", "array"], "items": {"type": "number"}},
        "minItems": 1,
        "default": [-2.0, -1.0, 0.0, 1.0, 2.0],
    },
    "grid": {
        "type": "object",
        "properties": {
            "half_width": {"type": "number", "exclusiveMinimum": 0, "default": 10.0},
            "n_grid": {"type": "integer", "minimum": 16, "default": 512},
            "dim": {"enum": [1, 2], "default": 1},
        },
        "additionalProperties": False,
        "default": {},
    },
    "x": {"type": "array", "items": {"type": "number"}},
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
    "region": {
        "anyOf": [{"enum": ["auto", "full"]}, {"type": "number", "exclusiveMinimum": 0}],
        "default": "auto",
    },
    "c_m": {"type": "number", "minimum": 0},
    "poly": {"type": "array", "items": {"type": "number"}, "minItems": 1, "maxItems": 5,
             "default": [0.0, 1.0]},
    "site_axis": {"type": "integer", "minimum": 0, "default": 0},
    "state": {
        "type": "object",
        "properties": {
            key: {"type": "array", "items": {"type": "number"}, "minItems": 1}
            for key in ("center_x", "center_xi", "width_x", "width_xi")
        },
        "required": ["center_x", "center_xi", "width_x", "width_xi"],
        "additionalProperties": False,
    },
    "t_list": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
               "minItems": 1, "default": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]},
    "output": {"type": ["string", "null"], "default": None},
    "csv_output": {"type": ["string", "null"], "default": None},
    "emit_metadata": {"type": "boolean", "default": True},
}


def _schema(keys, required, rules=None, **defaults):
    """The object schema over the whitespace-separated keys and the output keys,
    in that order: each key's rule from rules or else _PROPS, with defaults in
    place of the table's; a required key has no default."""
    required, properties = required.split(), {}
    for key in (*keys.split(), "output", "csv_output", "emit_metadata"):
        rule = (rules or {}).get(key, _PROPS[key])
        if key in defaults:
            rule = {**rule, "default": defaults[key]}
        properties[key] = {k: v for k, v in rule.items() if k != "default" or key not in required}
    return {"type": "object", "properties": properties, "required": required,
            "additionalProperties": False}


VERIFY_SCHEMAS = {
    "linf": _schema("suite seed preset n_points n_paths n_steps", "suite seed"),
    "xi-deriv": _schema("suite seed preset n_points n_paths n_steps t betas potential",
                        "suite seed"),
    "l1": _schema("suite t potential xi grid", "suite"),
    "mixed-deriv": _schema("suite seed preset n_paths n_steps t family m alpha beta lambda_sizes",
                           "suite seed family", alpha="0:1"),
    "class": _schema("suite seed preset n_paths n_steps t family m lambda_size",
                     "suite seed family"),
}

SCHEMAS = {
    "estimate": _schema("potential x xi t alpha beta n_paths n_steps seed preset chunk_size "
                        "xi_sweep", "potential x xi t seed", {"xi": _PROPS["x"]},
                        n_paths=20000, n_steps=32),
    "moments": _schema("beta t preset n_paths seed", "beta t seed", n_paths=100000),
    "oracle": _schema("potential grid t region", "potential t"),
    "bound": _schema("alpha beta m t c_m preset", "m t c_m",
                     {"m": {"type": "integer", "minimum": 0}}),
    "verify": {  # names the suite, whose own schema in VERIFY_SCHEMAS checks the config
        "type": "object", "properties": {"suite": _PROPS["suite"]}, "required": ["suite"],
    },
    "commutator": _schema("potential grid poly site_axis state t_list", "potential state"),
}


def load_config(text_or_path: str) -> dict:
    text = text_or_path.strip()
    if not text.startswith(("{", "[")):  # inline JSON, else a file path
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


_TYPES = {"array": list, "boolean": bool, "integer": int, "null": type(None),
          "number": numbers.Number, "object": dict, "string": str}


def _has_type(value, name) -> bool:
    """JSON Schema's type test, except that a NaN or infinite float is not a number."""
    if isinstance(value, bool):
        return name == "boolean"
    if isinstance(value, float) and name in ("integer", "number"):
        return value.is_integer() if name == "integer" else math.isfinite(value)
    return isinstance(value, _TYPES[name])


def _resolve(schema, value, path="$"):
    """Return value with the schema's defaults filled in; raise ConfigError, in
    jsonschema's words, at the first violation met.  An object's own keywords are
    checked before its properties, and the first anyOf branch that passes wins."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    array, obj = isinstance(value, list), isinstance(value, dict)
    for keyword, arg in schema.items():
        message = None
        if keyword == "type" and not any(_has_type(value, name) for name in types):
            message = f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "enum" and not any(
                e == value and isinstance(e, bool) == isinstance(value, bool) for e in arg):
            message = f"{value!r} is not one of {arg!r}"
        elif keyword == "minimum" and _has_type(value, "number") and value < arg:
            message = f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "exclusiveMinimum" and _has_type(value, "number") and value <= arg:
            message = f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif keyword == "minItems" and array and len(value) < arg:
            message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "maxItems" and array and len(value) > arg:
            message = f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif keyword == "required" and obj:
            message = next((f"{key!r} is a required property" for key in arg if key not in value),
                           None)
        elif keyword == "additionalProperties" and obj and arg is False:
            extras = sorted(value.keys() - schema.get("properties", {}).keys(), key=str)
            if extras:
                message = (f"Additional properties are not allowed ({', '.join(map(repr, extras))}"
                           f" {'was' if len(extras) == 1 else 'were'} unexpected)")
        elif keyword == "anyOf":
            for sub in arg:
                try:
                    value = _resolve(sub, value, path)
                    break
                except ConfigError:
                    pass
            else:
                message = f"{value!r} is not valid under any of the given schemas"
        elif keyword not in ("type", "enum", "minimum", "exclusiveMinimum", "minItems", "maxItems",
                             "required", "additionalProperties", "items", "properties", "default"):
            raise NotImplementedError(f"schema keyword {keyword!r} is not checked")
        if message is not None:
            raise ConfigError(f"invalid config at {path if path != '$' else '$ (top level)'}: "
                              f"{message}")
    if array and "items" in schema:
        value = [_resolve(schema["items"], item, f"{path}[{i}]") for i, item in enumerate(value)]
    if obj and "properties" in schema:
        value = dict(value)
        for key, sub in schema["properties"].items():
            if key in value or "default" in sub:
                given = value[key] if key in value else copy.deepcopy(sub["default"])
                value[key] = _resolve(sub, given, f"{path}.{key}")
    return value


def validate_config(subcommand: str, config: dict) -> dict:
    """Return the config with its defaults filled in; raise ConfigError at its first violation."""
    schema = SCHEMAS[subcommand]
    if subcommand == "verify" and isinstance(config.get("suite"), str):
        schema = VERIFY_SCHEMAS.get(config["suite"], schema)  # else the suite is rejected
    return _resolve(schema, config)


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
    # one pass over the symbol gives the window, its integral and the pairing
    table = oracle.symbol(S, config["region"], pairing=gaussian_test_functions(grid))
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
    suite, csv = config["suite"], None
    if suite == "l1":
        reports = [check_l1_bound(_verify_potential(config, "harmonic"), config["t"],
                                  config["xi"], Grid(**config["grid"]))]
    else:  # the Monte Carlo suites: one row per probe
        variance = _preset(config)
        reports, csv = check_probes(_verify_probes(config, variance), config["n_paths"],
                                    config["n_steps"], variance, n_workers)
    results = {
        "suite": suite,
        "reports": [r.to_json() for r in reports],
        "violations": sum(r.violation for r in reports),
    }
    bounds = [r.extra.get("bound") for r in reports]
    if suite == "mixed-deriv":
        results["bound_values"] = bounds
        results["bound_is_size_independent"] = max(bounds) == min(bounds)
    elif suite == "class":  # the (0, 0), (e_0, 0) and (0, e_0) bounds, uniform across sites
        size = config["lambda_size"]
        results["class_params"] = {"max_norm": bounds[0], "rho": [bounds[1]] * size,
                                   "delta": [bounds[2]] * size, "m": config["m"]}
    return results, csv, 3 if results["violations"] else 0


def _verify_probes(config, variance):
    suite, seed = config["suite"], config["seed"]
    if suite == "linf":
        return linf_probes(config["n_points"], seed)
    if suite == "xi-deriv":
        betas = [_parse_index(text, "beta") for text in config["betas"]]
        return xi_derivative_probes(_verify_potential(config, "lorentzian"), betas,
                                    config["t"], config["n_points"], seed, variance)
    family = family_from_json(config["family"])
    if suite == "mixed-deriv":
        return mixed_derivative_probes(
            family, config["m"], config["t"], _parse_index(config["alpha"], "alpha"),
            _parse_index(config["beta"], "beta"), config["lambda_sizes"], seed, variance)
    return class_probes(family, config["m"], config["t"], config["lambda_size"], seed, variance)


def _verify_potential(config, default):
    if "potential" in config:
        return potential_from_json(config["potential"])
    return default_sweep_potentials()[default]


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
    # a failure prints one line: numpy's RuntimeWarnings, from any thread, stay off stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            workers = args.workers if args.workers is not None else _env_workers()
            workers = max(1, min(workers, os.cpu_count() or 1))  # results do not depend on it
            config = load_config(args.config)
            code, doc = run_config(args.subcommand, config, workers)
            try:
                print(dumps(doc), flush=True)
            except BrokenPipeError as err:
                # the reader is gone; what stays buffered goes to devnull at exit
                with open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), sys.stdout.fileno())
                raise ConfigError(f"cannot write stdout: {err.strerror}") from err
            return code
        except (ArithmeticError, np.linalg.LinAlgError) as err:  # LinAlgError is a ValueError
            print(f"numerical failure: {err}", file=sys.stderr)
            return 2
        except (ValueError, MemoryError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
