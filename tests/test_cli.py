import copy
import errno
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from weylfk import bounds, cli
from weylfk.bounds import BoundReport

from potential_helpers import CustomPotential
from test_source import exception_classes


def run(subcommand, config, workers=1):
    return cli.run_config(subcommand, config, n_workers=workers)


def harmonic_potential_json():
    return {
        "variant": "nearest_neighbor",
        "d": 1,
        "sites": [[0]],
        "F": {"name": "harmonic"},
        "G": {"name": "zero"},
    }


STATE = {"center_x": [0.6], "center_xi": [0.6], "width_x": [1.0], "width_xi": [1.0]}

# the squares of the pair values overflow: the variance is inf - inf, a NaN
OVERFLOWING_VARIANCE = {"potential": {"variant": "zero", "sites": [0]}, "beta": "0:300",
                        "x": [0.0], "xi": [0.5], "t": 0.5, "seed": 1, "n_paths": 1000,
                        "n_steps": 1}

MOMENT_CONSTANT_OVERFLOW = (" the order-%d absolute moment constant of the standard normal, "
                            "2^(k/2) Gamma((k+1)/2) / sqrt(pi), overflows a float\n")


MOMENT_PRODUCT_OVERFLOW = (" the absolute moment product E prod_j |w_j(t)|^(beta_j) at beta "
                           "0:250,1:250, t 0.5 leaves double range\n")


def assert_one_failure_line(err, end="\n"):
    """err is one numerical-failure line, which ends with end."""
    assert err.startswith("numerical failure:") and err.endswith(end)
    assert err.count("\n") == 1


# every schema the checker walks: one per subcommand, and one per verify suite
CHECKED_SCHEMAS = {**cli.SCHEMAS,
                   **{f"verify-{suite}": schema for suite, schema in cli.VERIFY_SCHEMAS.items()}}


def schema_keywords(schema):
    """Every keyword of schema and of the schemas inside it."""
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from schema_keywords(sub)
    for sub in ([schema["items"]] if "items" in schema else []) + schema.get("anyOf", []):
        yield from schema_keywords(sub)


def reference_validator(schema):
    """jsonschema's validator for schema, to which a NaN or infinite float is not
    a number: the reference that the CLI's own checker follows."""
    cls = jsonschema.validators.validator_for(schema)
    is_type = cls.TYPE_CHECKER.is_type
    types = cls.TYPE_CHECKER.redefine("number", lambda checker, v: is_type(v, "number") and (
        not isinstance(v, float) or math.isfinite(v)))
    return jsonschema.validators.extend(cls, type_checker=types)(schema)


def as_reported(err):
    """The checker's message for jsonschema's error err."""
    field = err.json_path if err.json_path != "$" else "$ (top level)"
    return f"invalid config at {field}: {err.message}"


# values that probe the type rules: null, bools, integral and non-integral floats,
# NaN and the infinities, an integer too large for a float, near-miss strings,
# arrays and objects
PROBE_VALUES = [None, True, False, 0, 1, 2, -1, 10**400, -10**400, 0.0, 0.5, -1.0, 2.0,
                1e300, math.nan, math.inf, -math.inf, "", "x", "auto", "full", "0:1", "0.5",
                [], [0.0], [1, 2, 3, 4, 5, 6], [math.nan], [True], ["a"], {}, {"bogus": 1}]


def random_instance(rng, schema, probe=0.12):
    """A random value for schema: with probability probe one of PROBE_VALUES,
    otherwise one built from the schema, whose own parts may be probes."""
    if rng.random() < probe:
        return copy.deepcopy(rng.choice(PROBE_VALUES))
    if "anyOf" in schema:
        return random_instance(rng, rng.choice(schema["anyOf"]))
    if "enum" in schema:
        return rng.choice(schema["enum"])
    kind = schema.get("type", "object")
    kind = rng.choice(kind) if isinstance(kind, list) else kind
    if kind == "object":
        required = schema.get("required", [])
        out = {key: random_instance(rng, sub) for key, sub in schema.get("properties", {}).items()
               if rng.random() < (0.95 if key in required else 0.4)}
        if rng.random() < 0.05:
            out[rng.choice(["bogus", "a"])] = 1
        return out
    if kind == "array":
        return [random_instance(rng, schema.get("items", {})) for _ in range(rng.randrange(7))]
    return {"number": rng.uniform(-0.5, 3.0), "integer": rng.randrange(-1, 40),
            "string": "0:1", "boolean": True, "null": None}[kind]


class TestSerialization:
    def test_float_format(self):
        assert cli.format_number(0.1) == "0.10000000000000001"
        assert cli.format_number(1) == "1"
        assert cli.format_number(True) == "true"
        assert cli.format_number(math.inf) == "1e999"
        with pytest.raises(FloatingPointError):
            cli.format_number(math.nan)

    def test_dumps_roundtrip(self):
        doc = {"a": [1.5, 2, None], "b": {"c": "x", "d": False}, "e": []}
        assert json.loads(cli.dumps(doc)) == doc

    def test_infinite_bound_roundtrips(self):
        report = BoundReport("demo", 1, math.inf, 0.0, False, {"bound": math.inf})
        parsed = json.loads(cli.dumps(report.to_json()))
        assert parsed["worst_margin"] == math.inf


class TestConfigHandling:
    def test_defaults_materialized_and_revalidated(self):
        config = {
            "potential": {"variant": "zero", "sites": [0]},
            "x": [0.0], "xi": [1.0], "t": 0.5, "seed": 1,
            "n_paths": 2000, "n_steps": 1,
        }
        code, doc = run("estimate", config)
        assert code == 0
        assert doc["config"]["preset"] == "generator_laplacian"
        assert doc["config"]["chunk_size"] == 4096
        cli.validate_config("estimate", doc["config"])
        # a default is filled in too: the grid's {} gains the grid's own defaults
        echo = cli.validate_config("oracle", {"potential": {}, "t": 0.5})
        assert echo["grid"] == {"half_width": 10.0, "n_grid": 512, "dim": 1}

    def test_missing_field_named(self):
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.validate_config("estimate", {
                "potential": {"variant": "zero", "sites": [0]},
                "x": [0.0], "xi": [1.0], "t": 0.5,
            })

    def test_unknown_field_rejected(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.validate_config("moments", {
                "beta": "0:2", "t": 1.0, "seed": 0, "bogus": 1,
            })

    @pytest.mark.parametrize("subcommand,config", [
        ("bound", {"m": 1, "t": 0.5, "c_m": 1.0}),
        ("moments", {"beta": "0:2", "t": 1.0, "seed": 3, "n_paths": 2000}),
    ])
    def test_validated_once_per_run(self, subcommand, config, monkeypatch):
        # every top-level call of the walk is recorded (its own recursive calls
        # pass a path), so a second validation per run would show up
        schemas = []
        resolve = cli._resolve

        def recorded(schema, value, *path):
            if not path:
                schemas.append(schema)
            return resolve(schema, value, *path)

        monkeypatch.setattr(cli, "_resolve", recorded)
        code, _ = run(subcommand, config)
        assert code == 0
        assert schemas == [cli.SCHEMAS[subcommand]]

    @pytest.mark.parametrize("subcommand,config", [
        ("moments", {"beta": "0:2", "t": 1.0, "seed": 0, "bogus": 1}),
        ("moments", {"beta": "0:2", "t": 1.0, "seed": 0, "n_paths": 1}),
        ("estimate", {"potential": {"variant": "zero", "sites": [0]}, "x": [0.0], "xi": [1.0],
                      "t": 0.5}),
        ("oracle", {"potential": {"variant": "nope", "sites": [0]}, "t": 0.5,
                    "grid": {"n_grid": 8}}),
        ("verify", {"suite": "linf", "seed": 1, "n_points": "2"}),
    ])
    def test_error_message_as_from_jsonschema_validate(self, subcommand, config):
        # one violation each, so jsonschema's choice among errors plays no part
        schema = cli.SCHEMAS[subcommand]
        if subcommand == "verify":
            schema = cli.VERIFY_SCHEMAS[config["suite"]]
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(config, schema)
        with pytest.raises(cli.ConfigError) as got:
            cli.validate_config(subcommand, config)
        assert str(got.value) == as_reported(expected.value)

    @pytest.mark.parametrize("name", sorted(CHECKED_SCHEMAS))
    def test_schema_is_valid_under_its_metaschema(self, name):
        schema = CHECKED_SCHEMAS[name]
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("subcommand, config, message", [
        ("estimate", {"potential": {}, "x": [0.0], "xi": [1.0], "t": 0.5},
         "$ (top level): 'seed' is a required property"),
        ("moments", {"beta": "0:2", "t": 1.0, "seed": 0, "bogus": 1},
         "$ (top level): Additional properties are not allowed ('bogus' was unexpected)"),
        ("moments", {"beta": "0:2", "t": -1.0, "seed": 0},
         "$.t: -1.0 is less than or equal to the minimum of 0"),
        ("moments", {"beta": "0:2", "t": "0.5", "seed": 0}, "$.t: '0.5' is not of type 'number'"),
        ("moments", {"beta": "0:2", "t": math.nan, "seed": 0}, "$.t: nan is not of type 'number'"),
        ("moments", {"beta": "0:2", "t": True, "seed": 0}, "$.t: True is not of type 'number'"),
        ("moments", {"beta": "0:2", "t": 1.0, "seed": False},
         "$.seed: False is not of type 'integer'"),
        ("moments", {"beta": "0:2", "t": 1.0, "seed": 0.5}, "$.seed: 0.5 is not of type 'integer'"),
        ("moments", {"beta": "0:2", "t": 1.0, "seed": 3.0}, None),
        ("commutator", {"potential": {}, "t_list": []},
         "$ (top level): 'state' is a required property"),
        ("commutator", {"potential": {}, "t_list": [], "state": {
            "center_x": [0.0], "center_xi": [0.0], "width_x": [1.0], "width_xi": [1.0]}},
         "$.t_list: [] should be non-empty"),
        ("oracle", {"potential": {}, "t": 0.5, "region": -1},
         "$.region: -1 is not valid under any of the given schemas"),
        ("oracle", {"potential": {}, "t": 0.5, "region": "x"},
         "$.region: 'x' is not valid under any of the given schemas"),
        ("oracle", {"potential": {}, "t": 0.5, "region": 2.5}, None),
        ("oracle", {"potential": {}, "t": 0.5, "grid": {"dim": True}},
         "$.grid.dim: True is not one of [1, 2]"),
        ("oracle", {"potential": {}, "t": 0.5, "grid": {"dim": 2.0}}, None),
        ("verify", {"seed": 1}, "$ (top level): 'suite' is a required property"),
        ("verify", {"suite": ["linf"], "seed": 1},
         "$.suite: ['linf'] is not one of ['linf', 'xi-deriv', 'l1', 'mixed-deriv', 'class']"),
        ("verify", {"suite": "class", "seed": 1},
         "$ (top level): 'family' is a required property"),
    ])
    def test_checker_messages(self, subcommand, config, message):
        if message is None:
            cli.validate_config(subcommand, config)
        else:
            with pytest.raises(cli.ConfigError) as got:
                cli.validate_config(subcommand, config)
            assert str(got.value) == f"invalid config at {message}"

    def test_checker_matches_jsonschema(self):
        # seeded random configs for every schema the checker walks, mostly well
        # formed, with probe values for the type rules, and hand-made configs for
        # an anyOf beside a sibling error, an anyOf inside an anyOf and two errors
        # of one schema: the checker must reject exactly what jsonschema rejects
        # (to which a NaN or infinite float is not a number), and report one of
        # jsonschema's errors, at its JSON path and in its words
        rng = random.Random(20131)
        cases = [(schema, random_instance(rng, schema, probe=0.0))
                 for _, schema in sorted(CHECKED_SCHEMAS.items()) for _ in range(1500)]
        tangled = {"type": "object", "properties": {
            "a": {"anyOf": [{"type": "string"}, {"enum": [7, 8]}], "minimum": 5},
            "b": {"anyOf": [{"anyOf": [{"type": "null"}, {"minimum": 3}]},
                            {"type": "array", "minItems": 2}]},
            "c": {"enum": [1], "type": "integer"},
        }}
        cases += [(tangled, config) for config in (
            {"a": 1}, {"a": 6}, {"a": "x"}, {"a": True}, {"b": 1}, {"b": [0]}, {"b": "x"},
            {"c": "x"}, {"c": 2}, {"a": 1, "b": 4, "c": 2}, {"b": 1, "c": 2.0})]
        reported = set()
        references = {}  # one validator per schema: building one costs more than a case
        for schema, config in cases:
            if id(schema) not in references:
                references[id(schema)] = reference_validator(schema)
            reference = references[id(schema)]
            errors = {as_reported(err): err for err in reference.iter_errors(config)}
            try:
                cli._resolve(schema, config)
                got = None
            except cli.ConfigError as error:
                got = str(error)
            assert (got is None) == (not errors), config
            if got is not None:
                assert got in errors, (config, got, list(errors))
                # the keyword that rejected, and those that descended to it
                reported |= {errors[got].validator} | {
                    "items" if isinstance(key, int) else "properties"
                    for key in errors[got].absolute_path}
        # every keyword the checker implements took part in some rejection
        used = {key for schema in CHECKED_SCHEMAS.values() for key in schema_keywords(schema)}
        assert reported == used - {"default"}, reported

    def test_checker_knows_every_schema_keyword(self):
        # a keyword that the checker does not implement, such as "pattern", must
        # not pass unchecked: the schemas use exactly the checked keywords, and
        # any other keyword raises
        used = {key for schema in CHECKED_SCHEMAS.values() for key in schema_keywords(schema)}
        assert used == {"type", "enum", "minimum", "exclusiveMinimum", "minItems", "maxItems",
                        "items", "properties", "required", "additionalProperties", "anyOf",
                        "default"}
        with pytest.raises(NotImplementedError, match="pattern"):
            cli._resolve({"type": "string", "pattern": "^a"}, "b")

    # the verify schema only names the suite, whose own schema holds the defaults
    @pytest.mark.parametrize("name", sorted(CHECKED_SCHEMAS.keys() - {"verify"}))
    def test_schema_defaults_validate(self, name):
        # the walk fills in a default where a key is missing and checks it too,
        # so every default, itself filled in, must satisfy the schema it fills
        def with_defaults(schema):
            for sub in schema.get("properties", {}).values():
                if "default" in sub:
                    yield sub
                yield from with_defaults(sub)

        subs = list(with_defaults(CHECKED_SCHEMAS[name]))
        assert subs
        for sub in subs:
            jsonschema.validate(cli._resolve(sub, copy.deepcopy(sub["default"])), sub)

    @pytest.mark.parametrize("subcommand, config, echoed", [
        ("estimate", {"potential": {}, "x": [0.0], "xi": [1.0], "t": 0.5, "seed": 1},
         "potential x xi t seed alpha beta n_paths n_steps preset chunk_size xi_sweep"),
        ("moments", {"beta": "0:2", "t": 1.0, "seed": 0}, "beta t seed preset n_paths"),
        ("oracle", {"potential": {}, "t": 0.5}, "potential t grid region"),
        ("bound", {"m": 1, "t": 0.5, "c_m": 1.0}, "m t c_m alpha beta preset"),
        ("commutator", {"potential": {}, "state": STATE},
         "potential state grid poly site_axis t_list"),
        ("verify", {"suite": "linf", "seed": 1}, "suite seed preset n_points n_paths n_steps"),
        ("verify", {"suite": "xi-deriv", "seed": 1},
         "suite seed preset n_points n_paths n_steps t betas"),
        ("verify", {"suite": "l1"}, "suite t xi grid"),
        ("verify", {"suite": "mixed-deriv", "seed": 1, "family": {}},
         "suite seed family preset n_paths n_steps t m alpha beta lambda_sizes"),
        ("verify", {"suite": "class", "seed": 1, "family": {}},
         "suite seed family preset n_paths n_steps t m lambda_size"),
    ], ids=["estimate", "moments", "oracle", "bound", "commutator", "verify-linf",
            "verify-xi-deriv", "verify-l1", "verify-mixed-deriv", "verify-class"])
    def test_echo_order(self, subcommand, config, echoed):
        # the echo lists the given keys, then each default in its schema's order:
        # a schema that reorders its defaults changes every echoed config
        assert list(cli.validate_config(subcommand, config)) == [
            *echoed.split(), "output", "csv_output", "emit_metadata"]

    def test_inline_and_file_configs(self, tmp_path):
        config = {"beta": "0:2", "t": 1.0, "seed": 3, "n_paths": 2000}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.load_config(str(path)) == config
        assert cli.load_config(json.dumps(config)) == config
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(tmp_path / "missing.json"))
        with pytest.raises(cli.ConfigError):
            cli.load_config("{not json")


class TestExitCodes:
    def test_main_config_error_is_one(self, capsys):
        code = cli.main(["estimate", "{}"])
        assert code == 1
        assert "invalid config" in capsys.readouterr().err

    def test_bad_workers_env_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.WORKERS_ENV, "abc")
        code = cli.main(["estimate", "{}"])
        assert code == 1
        assert f"{cli.WORKERS_ENV} must be an integer" in capsys.readouterr().err

    def test_nan_result_is_numerical_failure(self, monkeypatch, capsys):
        def nan_potential(obj):
            return CustomPotential(obj["sites"], lambda x: np.full(x.shape[:-1], np.nan))

        monkeypatch.setattr(cli, "potential_from_json", nan_potential)
        config = {
            "potential": {"variant": "zero", "sites": [0]},
            "x": [0.0], "xi": [1.0], "t": 0.5, "seed": 1,
            "n_paths": 200, "n_steps": 2, "emit_metadata": False,
        }
        with pytest.raises(FloatingPointError):
            run("estimate", config)
        code = cli.main(["estimate", json.dumps(config)])
        assert code == 2
        assert "numerical failure: NaN in output" in capsys.readouterr().err

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        # a missing directory, and a directory where the file should go: the
        # second fails after the temporary file is written, which is removed
        for path in (tmp_path / "missing_dir" / "out.json", tmp_path / "taken"):
            config = {"alpha": "0:1", "beta": "1:1", "m": 1, "t": 0.5, "c_m": 16.0,
                      "output": str(path)}
            assert cli.main(["bound", json.dumps(config)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert str(path) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_unreadable_config_path_is_config_error(self, tmp_path, capsys):
        assert cli.main(["bound", str(tmp_path)]) == 1  # a directory, not a file
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(tmp_path) in err

    def test_non_object_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        # in a file or inline, an array is read as JSON, not as a path
        for config in (str(path), "[1]", " []"):
            assert cli.main(["bound", config]) == 1
            assert capsys.readouterr().err == "config error: config must be a JSON object\n"

    @pytest.mark.parametrize("error", [*exception_classes(), np.linalg.LinAlgError,
                                       FloatingPointError, MemoryError],
                             ids=lambda cls: cls.__name__)
    def test_failure_class_maps_to_its_exit_code(self, error, monkeypatch, capsys):
        # a failure's base decides its code: every class src defines, and the
        # library's own numerical and memory errors
        def fail(config, n_workers):
            raise error("boom")

        monkeypatch.setitem(cli.COMMANDS, "bound", fail)
        numerical = issubclass(error, (ArithmeticError, np.linalg.LinAlgError))
        assert cli.main(["bound", '{"m": 1, "t": 1.0, "c_m": 1.0}']) == (2 if numerical else 1)
        assert capsys.readouterr().err == (
            f"{'numerical failure' if numerical else 'config error'}: boom\n")

    def test_closed_stdout_is_config_error(self, tmp_path, monkeypatch, capsys):
        # the reader of stdout is gone: one line, exit 1, and the stream's file
        # descriptor now writes to devnull, so nothing more is printed at exit
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(stdout.fileno()))
            assert cli.main(["bound", '{"m": 1, "t": 1.0, "c_m": 1.0}']) == 1
            assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == "config error: cannot write stdout: Broken pipe\n"

    def test_closed_stdout_pipe_prints_one_line(self):
        src = str(Path(cli.__file__).parents[1])
        with subprocess.Popen(
                [sys.executable, "-m", "weylfk.cli", "bound", '{"m": 1, "t": 1.0, "c_m": 1.0}'],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=os.environ | {"PYTHONPATH": src}) as proc:
            proc.stdout.close()  # before the child writes: its write fails with EPIPE
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == "config error: cannot write stdout: Broken pipe\n"

    def test_numerical_failure_prints_one_line(self):
        # numpy warns of the overflow in the workers' variances; the warnings
        # stay off stderr, which holds the one failure line
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "weylfk.cli", "--workers", "2", "estimate",
             json.dumps({**OVERFLOWING_VARIANCE, "chunk_size": 250})],
            capture_output=True, text=True, timeout=60, env=os.environ | {"PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr == "numerical failure: NaN in output\n"

    def test_library_calls_still_warn(self, capsys):
        config = {**OVERFLOWING_VARIANCE, "chunk_size": 250}
        assert cli.main(["--workers", "2", "estimate", json.dumps(config)]) == 2
        assert_one_failure_line(capsys.readouterr().err, " NaN in output\n")
        with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError):
            run("estimate", config, workers=2)

    def test_unconverged_eigh_is_numerical_failure(self, monkeypatch, capsys):
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        config = {"potential": harmonic_potential_json(), "t": 0.5,
                  "grid": {"half_width": 8.0, "n_grid": 16}}
        assert cli.main(["oracle", json.dumps(config)]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: Eigenvalues did not converge" in err

    def test_sweep_site_out_of_range_fails_before_estimating(self, monkeypatch, capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return estimate(*args, **kwargs)

        estimate = cli.estimate_mixed_derivative
        monkeypatch.setattr(cli, "estimate_mixed_derivative", counted)
        config = {
            "potential": {"variant": "zero", "sites": [0]},
            "x": [0.0], "xi": [1.0], "t": 0.5, "seed": 1, "n_paths": 200, "n_steps": 2,
            "xi_sweep": {"site_index": 1, "start": -1.0, "stop": 1.0, "count": 3},
        }
        assert cli.main(["estimate", json.dumps(config)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert calls == []

    def test_empty_commutator_polynomial_is_config_error(self, capsys):
        config = {
            "potential": harmonic_potential_json(), "poly": [],
            "grid": {"half_width": 10.0, "n_grid": 128, "dim": 1},
            "state": {"center_x": [0.6], "center_xi": [0.6],
                      "width_x": [1.0], "width_xi": [1.0]},
        }
        assert cli.main(["commutator", json.dumps(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_commutator_site_axis_out_of_range_is_config_error(self, capsys):
        config = {"potential": harmonic_potential_json(), "site_axis": 1, "state": STATE,
                  "grid": {"half_width": 10.0, "n_grid": 256, "dim": 1}}
        assert cli.main(["commutator", json.dumps(config)]) == 1
        assert capsys.readouterr().err == "config error: site_axis out of range\n"

    def test_state_off_the_frequency_grid_is_numerical_failure(self, capsys):
        # the frequency grid at n_grid 64 and half-width 10 ends near 5
        config = {"potential": harmonic_potential_json(), "state": STATE | {"center_xi": [40.0]},
                  "grid": {"half_width": 10.0, "n_grid": 64, "dim": 1}}
        assert cli.main(["commutator", json.dumps(config)]) == 2
        assert (capsys.readouterr().err
                == "numerical failure: state leaks outside the frequency grid\n")

    @pytest.mark.parametrize("subcommand, config, key", [
        ("verify", {"suite": "xi-deriv", "seed": 1, "betas": [], "n_points": 1, "n_paths": 4,
                    "n_steps": 1}, "betas"),
        ("verify", {"suite": "mixed-deriv", "seed": 1, "lambda_sizes": [],
                    "family": {"family": "mean_field", "G": {"name": "lorentzian"}}},
         "lambda_sizes"),
        ("verify", {"suite": "l1", "xi": []}, "xi"),
        *(("commutator", {"potential": harmonic_potential_json(), "state": STATE | {key: []}},
           f"state.{key}") for key in STATE),
    ], ids=["betas", "lambda_sizes", "xi", *STATE])
    def test_empty_array_is_config_error(self, subcommand, config, key, capsys):
        # an empty list would check nothing and report success, or fail deep inside
        assert cli.main([subcommand, json.dumps(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: invalid config at $.{key}: [] should be non-empty\n"

    @pytest.mark.parametrize("dim, key, entries, message", [
        (1, "width_x", [1.0, 2.0], "width_x needs one entry, or one per grid axis (1), not 2"),
        (2, "width_xi", [1.0, 1.0, 1.0],
         "width_xi needs one entry, or one per grid axis (2), not 3"),
        (1, "center_x", [0.6, 0.1], "center_x needs one entry per grid axis (1), not 2"),
        (2, "center_xi", [0.6], "center_xi needs one entry per grid axis (2), not 1"),
        (1, "width_x", [0.0], "widths must be positive"),
    ], ids=["width_x-1d", "width_xi-2d", "center_x-1d", "center_xi-2d", "width_x-zero"])
    def test_mis_sized_state_width_is_config_error(self, dim, key, entries, message, capsys):
        sites = [[0], [1]][:dim]
        state = {"center_x": [0.6] * dim, "center_xi": [0.6] * dim,
                 "width_x": [1.0], "width_xi": [1.0]} | {key: entries}
        config = {"potential": harmonic_potential_json() | {"sites": sites}, "state": state,
                  "grid": {"half_width": 10.0, "n_grid": 16, "dim": dim}}
        assert cli.main(["commutator", json.dumps(config)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("subcommand, text, key", [
        ("oracle", '{"potential": {"variant": "mean_field", "sites": [0, 1], "G": '
                   '{"name": "lorentzian", "amplitude": 1e999}}, "t": 0.5}', "amplitude"),
        ("estimate", '{"potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0]], '
                     '"F": {"name": "harmonic", "amplitude": NaN}, "G": {"name": "zero"}}, '
                     '"x": [0.0], "xi": [1.0], "t": 0.5, "seed": 1}', "amplitude"),
        ("estimate", '{"potential": {"variant": "zero", "sites": [0]}, '
                     '"x": [0.0], "xi": [Infinity], "t": 0.5, "seed": 1}', "$.xi[0]"),
        ("estimate", '{"potential": {"variant": "zero", "sites": [0]}, '
                     '"x": [0.0], "xi": [1.0], "t": NaN, "seed": 1}', "$.t"),
        ("oracle", '{"potential": {"variant": "zero", "sites": [0]}, "t": 0.5, '
                   '"grid": {"half_width": 1e999}}', "$.grid.half_width"),
        ("bound", '{"m": 1, "t": 0.5, "c_m": 1e999}', "$.c_m"),
        ("commutator", '{"potential": {"variant": "zero", "sites": [0]}, "poly": [0, NaN], '
                       '"state": {"center_x": [0.0], "center_xi": [0.0], '
                       '"width_x": [1.0], "width_xi": [1.0]}}', "$.poly[1]"),
    ], ids=["oracle-amplitude", "estimate-amplitude", "estimate-xi", "estimate-t",
            "oracle-half-width", "bound-c-m", "commutator-poly"])
    def test_non_finite_number_is_config_error(self, subcommand, text, key, capsys):
        assert cli.main([subcommand, text]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err
        # main keeps warnings off stderr, so the library call shows that none was raised
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=re.escape(key)):
                run(subcommand, cli.load_config(text))
        assert [w.category for w in seen] == []

    def test_huge_integer_is_a_number(self):
        # the finiteness check tests floats only: an integer too large for a
        # float is still a number to the schema, and checking it raises nothing
        config = {"m": 1, "t": 0.5, "c_m": 10**400}
        assert cli.validate_config("bound", config)["c_m"] == 10**400

    HUGE = "1" * 401  # an integer beyond the largest float

    @pytest.mark.parametrize("subcommand, text, key", [
        ("bound", f'{{"m": 1, "t": {HUGE}, "c_m": 1.0}}', "$.t"),
        ("oracle", f'{{"potential": {{"variant": "zero", "sites": [0]}}, "t": 0.5, '
                   f'"grid": {{"half_width": {HUGE}, "n_grid": 16}}}}', "$.grid.half_width"),
        ("estimate", f'{{"potential": {{"variant": "mean_field", "sites": [0, 1], "G": '
                     f'{{"name": "lorentzian", "amplitude": {HUGE}}}}}, '
                     f'"x": [0.0, 0.0], "xi": [1.0, 1.0], "t": 0.5, "seed": 1}}',
         "$.potential.G.amplitude"),
    ], ids=["bound-t", "oracle-half-width", "estimate-amplitude"])
    def test_integer_too_large_for_a_float_is_config_error(self, subcommand, text, key,
                                                           capsys):
        assert cli.main([subcommand, text]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err
        assert "Traceback" not in err

    def test_unallocatable_array_is_config_error(self, monkeypatch, capsys):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(cli, "GridOracle", too_large)
        config = {"potential": harmonic_potential_json(), "t": 0.5,
                  "grid": {"half_width": 8.0, "n_grid": 1048576}}
        assert cli.main(["oracle", json.dumps(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: Unable to allocate")
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand, config, line", [
        ("moments", {"beta": "0:400", "t": 0.5, "seed": 1}, MOMENT_CONSTANT_OVERFLOW % 400),
        # the bound takes the largest constant up to m
        ("bound", {"beta": "0:400", "m": 400, "t": 0.5, "c_m": 16.0},
         MOMENT_CONSTANT_OVERFLOW % 302),
        ("verify", {"suite": "xi-deriv", "betas": ["0:400"], "seed": 1,
                    "n_points": 1, "n_paths": 64, "n_steps": 2}, MOMENT_CONSTANT_OVERFLOW % 400),
        ("verify", {"suite": "class", "m": 400, "seed": 1,
                    "family": {"family": "mean_field", "G": {"name": "lorentzian"}}},
         " the certified sup bound of 'lorentzian' at order 171 overflows a float\n"),
        ("oracle", {"potential": harmonic_potential_json(), "t": 0.5,
                    "grid": {"half_width": 1e150, "n_grid": 16}},
         " pairing test Gaussian centred at 0.0 is 0 at every cell of spacing 1.25e+149; "
         "refine the grid\n"),
        ("oracle", {"potential": harmonic_potential_json(), "t": 0.5,
                    "grid": {"half_width": 1e300, "n_grid": 16}},
         " grid spacing 1.25e+299 (half_width 1e+300, n_grid 16) leaves double range: "
         "2 / spacing**2 is not positive and finite\n"),
        ("oracle", {"potential": harmonic_potential_json(), "t": 0.5,
                    "grid": {"half_width": 1e-300, "n_grid": 16}},
         " grid spacing 1.25e-301 (half_width 1e-300, n_grid 16) leaves double range: "
         "2 / spacing**2 is not positive and finite\n"),
        ("estimate", OVERFLOWING_VARIANCE, " NaN in output\n"),
        # two finite constants, about 1e245 each, whose product overflows
        ("moments", {"beta": "0:250,1:250", "t": 0.5, "seed": 1}, MOMENT_PRODUCT_OVERFLOW),
        ("verify", {"suite": "xi-deriv", "betas": ["0:250,1:250"], "seed": 1,
                    "n_points": 1, "n_paths": 64, "n_steps": 2}, MOMENT_PRODUCT_OVERFLOW),
        # the exact product is finite, its max-order coarsening B_250^250 is not
        ("verify", {"suite": "xi-deriv", "betas": ["0:250"], "seed": 1,
                    "n_points": 1, "n_paths": 64, "n_steps": 2},
         " the max-order bound B_m^|beta| (sigma2 t)^(|beta|/2) at beta 0:250, t 0.5 "
         "leaves double range\n"),
    ], ids=["moments-gamma", "bound-gamma", "xi-deriv-gamma", "class-m", "oracle-coarse-grid",
            "oracle-huge-grid", "oracle-tiny-grid", "estimate-variance", "moments-product",
            "xi-deriv-product", "xi-deriv-max-order"])
    def test_arithmetic_overflow_is_numerical_failure(self, subcommand, config, line, capsys):
        # overflow or division by zero in the arithmetic exits 2 with one stderr
        # line, which ends with line: numpy's warnings of the overflow in the
        # estimate's variance are not printed
        assert cli.main([subcommand, json.dumps(config)]) == 2
        assert_one_failure_line(capsys.readouterr().err, line)

    def test_moments_overflowed_second_moment_is_numerical_failure(self, capsys):
        # the squared samples overflow while their mean does not: an infinite
        # stderr would report a deviation of 0 stderr from the exact moment
        config = {"beta": "0:300", "t": 0.5, "seed": 1, "n_paths": 20000}
        assert cli.main(["moments", json.dumps(config)]) == 2
        assert_one_failure_line(capsys.readouterr().err)

    @pytest.mark.parametrize("n_sites", [256, 512])
    def test_underflowed_second_moment_is_numerical_failure(self, n_sites, capsys):
        # at amplitude 1 the weights exp(-A) of a 512-site chain all lie below
        # 1.5e-154, so their squares underflow and the stderr would read 0; at
        # 256 sites the estimate is still returned
        config = {"potential": {"variant": "nearest_neighbor", "d": 1,
                                "sites": [[i] for i in range(n_sites)],
                                "F": {"name": "harmonic"}, "G": {"name": "lorentzian"}},
                  "x": [0.1] * n_sites, "xi": [0.0] * n_sites, "t": 0.5, "n_steps": 8,
                  "n_paths": 64, "seed": 1}
        code = cli.main(["estimate", json.dumps(config)])
        out, err = capsys.readouterr()
        if n_sites == 512:
            assert code == 2
            assert err.startswith("numerical failure: the largest path weight exp(-A) of a "
                                  "chunk at 512 sites is 6.51e-196, below 1.49e-154")
        else:
            assert code == 0
            results = json.loads(out)["results"]
            assert 1e-99 < results["value_re"] < 1e-97 and 0 < results["stderr"] < 1e-98

    def test_zero_estimate_from_unit_weights_is_exact(self):
        # the weights exp(-A) are 1 and the alpha factor 0: 0 +- 0 is the exact answer
        code, doc = run("estimate", {"potential": {"variant": "zero", "sites": [0]},
                                     "alpha": "0:1", "x": [0.0], "xi": [0.5], "t": 0.5,
                                     "seed": 1, "n_paths": 64, "n_steps": 2})
        assert code == 0
        assert [doc["results"][k] for k in ("value_re", "value_im", "stderr")] == [0, 0, 0]

    @pytest.mark.parametrize("F", ["lorentzian", "harmonic"])
    def test_order_200_position_derivative_fails_quickly(self, F, capsys):
        # the Lorentzian's partials overflow; the harmonic well's estimate has
        # an overflowing second moment
        config = {
            "potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0]],
                          "F": {"name": F}, "G": {"name": "zero"}},
            "alpha": "0:200", "x": [0.0], "xi": [0.5], "t": 0.5, "seed": 1,
            "n_paths": 64, "n_steps": 4,
        }
        start = time.perf_counter()
        assert cli.main(["estimate", json.dumps(config)]) == 2
        assert time.perf_counter() - start < 10.0
        assert_one_failure_line(capsys.readouterr().err)

    def test_xi_deriv_bound_overflow_fails_before_sampling(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(bounds, "estimate_mixed_derivative",
                            lambda *args, **kwargs: calls.append(args))
        config = {"suite": "xi-deriv", "betas": ["0:1", "0:400"], "seed": 1,
                  "n_points": 1, "n_paths": 64, "n_steps": 2}
        assert cli.main(["verify", json.dumps(config)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert calls == []

    def test_bound_of_a_large_frequency_order_sum_is_infinite(self):
        # the moments and the xi-deriv suite fail on this beta; the closed-form
        # bound reports its documented infinite value
        code, doc = run("bound", {"beta": "0:250,1:250", "m": 250, "t": 0.5, "c_m": 1.0})
        assert code == 0
        assert doc["results"]["bound"] == math.inf

    def test_nonpositive_oracle_region_is_config_error(self, capsys):
        config = {"potential": harmonic_potential_json(), "t": 0.5, "region": -1,
                  "grid": {"half_width": 8.0, "n_grid": 16}}
        assert cli.main(["oracle", json.dumps(config)]) == 1
        assert capsys.readouterr().err.startswith("config error: invalid config at $.region")

    def test_pairing_off_the_grid_is_numerical_failure(self, capsys):
        # the pairing test Gaussian centred at 0.3 needs a half-width above about 7.1
        config = {"potential": harmonic_potential_json(), "t": 0.1,
                  "grid": {"half_width": 6.0, "n_grid": 64}}
        assert cli.main(["oracle", json.dumps(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: pairing test function carries 2.673e-08 ")

    def test_verify_zero_potential_l1_is_two(self, capsys):
        config = {
            "suite": "l1",
            "potential": {"variant": "zero", "sites": [[0]]},
            "grid": {"half_width": 8.0, "n_grid": 64, "dim": 1},
        }
        code = cli.main(["verify", json.dumps(config)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_verify_l1_on_2d_grid(self, capsys):
        # frequencies carry one coordinate per grid axis
        config = {
            "suite": "l1", "t": 1.0,
            "xi": [[0.0, 0.0], [1.0, -0.5]],
            "potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0], [1]],
                          "F": {"name": "harmonic"}, "G": {"name": "zero"}},
            "grid": {"dim": 2, "n_grid": 32},
        }
        assert cli.main(["verify", json.dumps(config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["reports"][0]["n_samples"] == 2
        config["xi"] = [0.0, [1.0, -0.5]]  # a bare number is one coordinate
        assert cli.main(["verify", json.dumps(config)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "has 1 coordinates, the grid has 2" in captured.err
        assert "Traceback" not in captured.err

    def test_step_key_is_config_error(self, capsys):
        # x-derivatives are exact chain-rule sums: there is no step to set
        config = {
            "potential": harmonic_potential_json(),
            "x": [0.3], "xi": [0.5], "t": 0.5, "seed": 1, "alpha": "0:1",
            "h": 0.01, "n_paths": 200, "n_steps": 2,
        }
        assert cli.main(["estimate", json.dumps(config)]) == 1
        assert "'h' was unexpected" in capsys.readouterr().err

    def test_third_order_bound_is_config_error(self, capsys):
        # the closed-form bound is certified only up to per-site order 2
        bound = {"alpha": "0:3", "beta": "", "m": 3, "t": 0.5, "c_m": 1.0}
        verify = {
            "suite": "mixed-deriv", "seed": 2,
            "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
            "m": 3, "t": 0.5, "alpha": "0:3", "beta": "",
            "lambda_sizes": [2], "n_paths": 64, "n_steps": 2,
        }
        for subcommand, config in (("bound", bound), ("verify", verify)):
            assert cli.main([subcommand, json.dumps(config)]) == 1
            assert "per-site position orders at most 2" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"suite": "xi-deriv", "seed": 1, "betas": ["5:1"], "n_points": 1,
          "n_paths": 64}, "is not a site position"),
        ({"suite": "mixed-deriv", "seed": 2,
          "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
          "m": 1, "t": 0.5, "alpha": "3:1", "beta": "",
          "lambda_sizes": [2], "n_paths": 64, "n_steps": 2}, "is not a site position"),
        # a lattice coordinate tuple is not a position: the index is malformed
        ({"suite": "mixed-deriv", "seed": 2,
          "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
          "m": 1, "t": 0.5, "alpha": "(0):1", "beta": "",
          "lambda_sizes": [2], "n_paths": 64, "n_steps": 2},
         "invalid alpha multi-index '(0):1'"),
    ], ids=["xi-deriv-slot-5", "mixed-deriv-slot-3", "mixed-deriv-tuple-slot"])
    def test_slot_outside_site_list_is_config_error(self, config, message, capsys):
        # multi-indices address site positions 0..n_sites-1
        assert cli.main(["verify", json.dumps(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err

    def test_estimate_lattice_site_key_is_config_error(self, capsys):
        config = {"potential": harmonic_potential_json(), "alpha": "(0):1",
                  "x": [0.0], "xi": [0.5], "t": 0.5, "seed": 1, "n_paths": 64}
        assert cli.main(["estimate", json.dumps(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid alpha multi-index '(0):1'")
        assert "Traceback" not in err

    def test_verify_violation_is_three(self, monkeypatch):
        from weylfk.symbol_estimator import SymbolEstimate

        def fake_estimate(*args, **kwargs):
            return SymbolEstimate(2.0 + 0j, 1e-6, 100, 1, "generator_laplacian", 0.5)

        # the verify suites estimate through bounds, not through the CLI
        monkeypatch.setattr(bounds, "estimate_mixed_derivative", fake_estimate)
        for suite, extra, n_reports in (("linf", {}, 1), ("xi-deriv", {"betas": ["0:1"]}, 2)):
            code, doc = run("verify", {
                "suite": suite, "seed": 1, "n_points": 3, "n_paths": 100, "n_steps": 1,
            } | extra)
            assert code == 3, suite
            assert doc["results"]["violations"] == n_reports, suite

    def test_verify_linf_clean_is_zero(self):
        code, doc = run("verify", {
            "suite": "linf", "seed": 5, "n_points": 6,
            "n_paths": 2000, "n_steps": 8,
        })
        assert code == 0
        assert doc["results"]["violations"] == 0

    def test_verify_mixed_deriv_suite(self):
        code, doc = run("verify", {
            "suite": "mixed-deriv", "seed": 2,
            "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
            "m": 1, "t": 0.5, "alpha": "0:1", "beta": "",
            "lambda_sizes": [2, 3], "n_paths": 1024, "n_steps": 8,
        })
        assert code == 0
        assert doc["results"]["bound_is_size_independent"] is True

    def test_verify_class_suite(self):
        code, doc = run("verify", {
            "suite": "class", "seed": 2,
            "family": {"family": "mean_field", "G": {"name": "gaussian_bump"}},
            "m": 1, "t": 0.5, "lambda_size": 2,
            "n_paths": 1024, "n_steps": 8,
        })
        assert code == 0
        params = doc["results"]["class_params"]
        assert params["max_norm"] == 1.0
        assert len(params["rho"]) == 2

    def test_verify_class_bound_beyond_double_range_is_infinite(self, capsys):
        # exp(t c_m) leaves double range here: the class bounds are infinite, as
        # an overflowing mixed-deriv bound is, so nothing can violate them
        family = {"family": "mean_field", "G": {"name": "lorentzian"}}
        config = {"seed": 1, "family": family, "m": 2, "t": 1.0, "n_paths": 64, "n_steps": 2,
                  "emit_metadata": False}
        assert cli.main(["verify", json.dumps(config | {"suite": "class",
                                                        "lambda_size": 4})]) == 0
        out = capsys.readouterr().out
        results = json.loads(out)["results"]
        assert results["class_params"]["rho"] == [math.inf] * 4
        assert [r["extra"]["bound"] for r in results["reports"]][1::2] == [math.inf] * 2
        assert re.search(r'"rho": \[\s+1e999,', out)  # serialized as 1e999
        assert cli.main(["verify", json.dumps(config | {
            "suite": "mixed-deriv", "alpha": "0:1", "lambda_sizes": [4]})]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["bound_values"] == [math.inf]

    def test_probe_against_infinite_bound_is_untested(self):
        # a report whose bound left double range tests nothing and says so; the
        # suite still exits 0
        family = {"family": "mean_field", "G": {"name": "lorentzian"}}
        config = {"seed": 1, "family": family, "m": 2, "t": 1.0, "n_paths": 64, "n_steps": 2}
        code, doc = run("verify", config | {"suite": "class", "lambda_size": 4})
        assert code == 0
        reports = doc["results"]["reports"]
        assert [r.get("untested", False) for r in reports] == [False, True, False, True]
        assert [r["extra"]["bound"] == math.inf for r in reports] == [False, True, False, True]
        code, doc = run("verify", config | {"suite": "mixed-deriv", "alpha": "0:1",
                                            "lambda_sizes": [4]})
        assert code == 0
        assert [r.get("untested") for r in doc["results"]["reports"]] == [True]

    @pytest.mark.parametrize("config, columns, n_rows", [
        ({"suite": "linf", "n_points": 5}, ["bound"], 5),
        ({"suite": "xi-deriv", "n_points": 2, "betas": ["0:1", "0:2", "0:3"]},
         ["moment_product_bound", "max_order_bound"], 6),
        ({"suite": "mixed-deriv", "lambda_sizes": [2, 3, 5],
          "family": {"family": "mean_field", "G": {"name": "lorentzian"}}}, ["bound"], 6),
        ({"suite": "class", "lambda_size": 3,
          "family": {"family": "mean_field", "G": {"name": "lorentzian"}}}, ["bound"], 8),
    ], ids=["linf", "xi-deriv", "mixed-deriv", "class"])
    def test_verify_csv_has_one_row_per_probe(self, config, columns, n_rows, tmp_path):
        # each row carries its probe's estimate and its group's bounds; each
        # report's worst margin is one of its group's rows
        csv = tmp_path / "rows.csv"
        code, doc = run("verify", config | {"seed": 3, "n_paths": 64, "n_steps": 2,
                                            "csv_output": str(csv)})
        assert code == 0
        header, *lines = csv.read_text().splitlines()
        assert header.split(",") == ["group", "n_sites", "t", "seed", "value_re", "value_im",
                                     "stderr", *columns]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert len(rows) == n_rows
        reports = doc["results"]["reports"]
        groups = sorted({int(row[0]) for row in rows})
        assert groups == list(range(len(reports) // len(columns)))
        for k, report in enumerate(reports):
            group, column = divmod(k, len(columns))
            margins = [row[7 + column] - abs(complex(row[4], row[5]))
                       for row in rows if row[0] == group]
            assert report["n_samples"] == len(margins)
            assert report["worst_margin"] in margins

    @pytest.mark.parametrize("config, unread", [
        ({"suite": "linf", "n_points": 2, "n_paths": 64, "n_steps": 2,
          "potential": {"variant": "zero", "sites": [0]},
          "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
          "lambda_sizes": [3], "t": 0.5}, "'family', 'lambda_sizes', 'potential', 't' were"),
        ({"suite": "xi-deriv", "n_points": 1, "n_paths": 64, "grid": {"n_grid": 32},
          "m": 2}, "'grid', 'm' were"),
        ({"suite": "l1", "t": 1.0, "grid": {"half_width": 12.0, "n_grid": 64},
          "preset": "generator_laplacian", "n_paths": 64, "n_steps": 2},
         "'n_paths', 'n_steps', 'preset', 'seed' were"),
        ({"suite": "l1", "t": 1.0, "xi": [0.0]}, "'seed' was"),  # l1 draws no samples
        ({"suite": "mixed-deriv", "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
          "lambda_sizes": [2], "lambda_size": 3, "betas": ["0:1"], "n_points": 2},
         "'betas', 'lambda_size', 'n_points' were"),
        ({"suite": "class", "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
          "alpha": "0:1", "xi": [0.0]}, "'alpha', 'xi' were"),
    ], ids=["linf", "xi-deriv", "l1", "l1-seed", "mixed-deriv", "class"])
    def test_key_the_suite_ignores_is_config_error(self, config, unread, capsys):
        # a key the suite never reads would still be echoed as if it had been used
        assert cli.main(["verify", json.dumps(config | {"seed": 1})]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: invalid config at $ (top level): "
                       f"Additional properties are not allowed ({unread} unexpected)\n")

    @pytest.mark.parametrize("suite, config", [
        ("linf", {"n_points": 1}),
        ("xi-deriv", {"n_points": 1, "betas": ["0:1"],
                      "potential": {"variant": "zero", "sites": [0]}}),
        ("l1", {"grid": {"half_width": 12.0, "n_grid": 32}, "xi": [0.0]}),
        ("mixed-deriv", {"family": {"family": "mean_field", "G": {"name": "lorentzian"}},
                         "lambda_sizes": [2]}),
        ("class", {"family": {"family": "mean_field", "G": {"name": "lorentzian"}},
                   "lambda_size": 2}),
    ])
    def test_echo_holds_the_keys_the_suite_reads(self, suite, config):
        # the echoed config, defaults included, is exactly what the suite reads
        # besides the output keys
        class Recorded(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        read = set()
        fast = {"seed": 1, "n_paths": 2, "n_steps": 1} if suite != "l1" else {}
        echo = cli.validate_config("verify", {"suite": suite} | fast | config)
        cli.cmd_verify(Recorded(echo), 1)
        assert echo.keys() - read == {"output", "csv_output", "emit_metadata"}
        assert read <= echo.keys()

    def test_verify_family_required(self):
        code, doc = None, None
        with pytest.raises(cli.ConfigError, match="family"):
            run("verify", {"suite": "class", "seed": 1})

    @pytest.mark.parametrize("subcommand, description, unused", [
        ("estimate", {"variant": "zero", "sites": [0], "F": {"name": "harmonic"},
                      "include_diagonal": True}, "F, include_diagonal"),
        ("estimate", {"variant": "nearest_neighbor", "d": 1, "sites": [[0]],
                      "F": {"name": "harmonic"}, "G": {"name": "zero"},
                      "include_diagonal": False}, "include_diagonal"),
        ("estimate", {"variant": "mean_field", "sites": [0], "d": 1, "G": {"name": "lorentzian"},
                      "F": {"name": "harmonic", "amplitude": 100}}, "F, d"),
        ("verify", {"family": "mean_field", "G": {"name": "lorentzian"},
                    "F": {"name": "harmonic", "amplitude": 100}}, "F"),
        ("verify", {"family": "nearest_neighbor_chain", "G": {"name": "lorentzian"},
                    "include_diagonal": False}, "include_diagonal"),
    ], ids=["zero", "nearest_neighbor", "mean_field", "mean_field-family", "chain-family"])
    def test_key_the_variant_ignores_is_config_error(self, subcommand, description, unused,
                                                     capsys):
        # a key that changes nothing would still be echoed as if it had been used
        if subcommand == "estimate":
            config = {"potential": description, "x": [0.0], "xi": [0.0], "t": 0.5, "seed": 1,
                      "n_paths": 64, "n_steps": 2}
        else:
            config = {"suite": "mixed-deriv", "seed": 1, "family": description,
                      "lambda_sizes": [2], "n_paths": 64, "n_steps": 2}
        assert cli.main([subcommand, json.dumps(config)]) == 1
        assert f"does not use {unused}" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, description, index", [
        ("estimate", {"variant": "mean_field", "sites": ["a", "b"], "G": {"name": "lorentzian"}},
         "alpha"),
        ("estimate", {"variant": "nearest_neighbor", "d": 1, "sites": [[0.5], [1.5]],
                      "F": {"name": "zero"}, "G": {"name": "lorentzian"}}, "beta"),
        ("estimate", {"variant": "mean_field", "sites": [True, False],
                      "G": {"name": "lorentzian"}}, "alpha"),
        ("estimate", {"variant": "mean_field", "sites": [0, 1], "G": {"name": "lorentzian"},
                      "include_diagonal": "no"}, None),
        ("estimate", {"variant": "nearest_neighbor", "d": 1, "sites": [[0], [1]],
                      "G": {"name": "lorentzian"}}, None),
        ("estimate", {"variant": "mean_field", "sites": [0, 1],
                      "G": {"name": "harmonic", "width": 2.0}}, None),
        ("estimate", {"variant": "nearest_neighbor", "d": 1.5, "sites": [[0], [1]],
                      "F": {"name": "zero"}, "G": {"name": "lorentzian"}}, None),
        ("verify", {"family": "mean_field", "G": {"name": "lorentzian"},
                    "include_diagonal": "no"}, None),
        ("verify", {"family": "nearest_neighbor_chain", "G": {"name": "harmonic", "width": 2.0}},
         None),
        ("verify", {"family": "nearest_neighbor_chain"}, None),
        ("estimate", {"variant": "zero", "sites": [0, 0]}, None),
    ], ids=["string-sites", "fractional-sites", "bool-sites", "include-diagonal-string",
            "missing-F", "harmonic-width", "fractional-d", "family-include-diagonal-string",
            "family-harmonic-width", "family-missing-G", "duplicate-sites"])
    def test_malformed_description_is_config_error(self, subcommand, description, index,
                                                  capsys):
        # the builders check the descriptions the schema passes through as objects
        if subcommand == "estimate":
            config = {"potential": description, "x": [0.0, 0.0], "xi": [0.0, 0.0], "t": 0.5,
                      "seed": 1, "n_paths": 64, "n_steps": 2}
            if index:
                config[index] = "0:1"
        else:
            config = {"suite": "mixed-deriv", "seed": 1, "family": description,
                      "lambda_sizes": [2], "n_paths": 64, "n_steps": 2}
        assert cli.main([subcommand, json.dumps(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_mixed_site_kinds_in_index_is_config_error(self, capsys):
        config = {"alpha": "0:1,(1):1", "m": 1, "t": 0.5, "c_m": 1.0}
        assert cli.main(["bound", json.dumps(config)]) == 1
        assert capsys.readouterr().err.startswith("config error: invalid alpha multi-index")

    @pytest.mark.parametrize("subcommand, config", [
        ("estimate", {"potential": {"variant": "zero", "sites": [0]}, "x": [0.0], "xi": [0.0],
                      "t": 0.5, "seed": -1}),
        ("moments", {"beta": "0:2", "t": 1.0, "seed": -1}),
        ("verify", {"suite": "linf", "seed": -1}),
    ])
    def test_negative_seed_is_named(self, subcommand, config, capsys):
        assert cli.main([subcommand, json.dumps(config)]) == 1
        assert capsys.readouterr().err.startswith("config error: invalid config at $.seed")

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # run_config only records the count it is given, so no pool is started
        seen = []

        def record(subcommand, config, n_workers):
            seen.append(n_workers)
            return 0, {}

        monkeypatch.setattr(cli, "run_config", record)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for argv in (["--workers", "1000000"], ["--workers", "2"], ["--workers", "1"],
                     ["--workers", "-3"]):
            assert cli.main(argv + ["moments", "{}"]) == 0
        monkeypatch.setenv(cli.WORKERS_ENV, "4096")
        assert cli.main(["moments", "{}"]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert cli.main(["--workers", "8", "moments", "{}"]) == 0
        assert seen == [2, 2, 1, 1, 2, 1]


class TestSubcommands:
    def test_moments(self):
        code, doc = run("moments", {"beta": "0:2", "t": 0.5, "seed": 9,
                                    "preset": "standard_wiener",
                                    "n_paths": 50000})
        assert code == 0
        res = doc["results"]
        assert res["exact"] == pytest.approx(0.5)
        assert abs(res["sample_mean"] - res["exact"]) <= 4 * res["sample_stderr"]

    def test_bound(self):
        code, doc = run("bound", {"alpha": "0:1", "beta": "", "m": 1,
                                  "t": 1.0, "c_m": 2.0,
                                  "preset": "standard_wiener"})
        assert code == 0
        assert doc["results"]["bound"] == pytest.approx(math.exp(2.0))

    def test_estimate_third_order_position_derivative(self):
        code, doc = run("estimate", {
            "potential": harmonic_potential_json(),
            "x": [0.6], "xi": [0.5], "t": 0.25, "seed": 3, "alpha": "0:3",
            "n_paths": 2000, "n_steps": 8,
        })
        assert code == 0
        assert math.isfinite(doc["results"]["value_re"])

    def test_estimate_chain_indices_are_site_positions(self, capsys):
        # lattice sites are coordinate tuples; alpha and beta address them by
        # position 0..n_sites-1, as xi_sweep.site_index does
        config = {
            "potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0], [1], [2]],
                          "F": {"name": "harmonic"}, "G": {"name": "lorentzian"}},
            "x": [0.1, -0.2, 0.3], "xi": [0.4, 0.0, -0.5], "t": 0.25, "seed": 5,
            "n_paths": 2000, "n_steps": 8,
        }
        code, doc = run("estimate", config | {"alpha": "0:1", "beta": "1:1"})
        assert code == 0
        assert math.isfinite(doc["results"]["value_re"])
        assert cli.main(["estimate", json.dumps(config | {"alpha": "3:1"})]) == 1
        assert "is not a site position" in capsys.readouterr().err

    def test_oracle_summary_and_csv(self, tmp_path):
        out = tmp_path / "oracle.json"
        csv = tmp_path / "oracle.csv"
        code, doc = run("oracle", {
            "potential": harmonic_potential_json(),
            "grid": {"half_width": 8.0, "n_grid": 128, "dim": 1},
            "t": 0.5,
            "output": str(out),
            "csv_output": str(csv),
        })
        assert code == 0
        res = doc["results"]
        assert res["max_abs_symbol"] <= 1.0 + 1e-8
        assert abs(res["symbol_integral"] - res["trace"]) <= 1e-6 * res["trace"]
        assert res["pairing_residual"] <= 1e-6
        assert out.exists()
        header, *rows = csv.read_text().strip().split("\n")
        assert header == "x,xi,u"
        assert len(rows) == res["n_centers"] * 128

    def test_estimate_xi_sweep_csv(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        code, doc = run("estimate", {
            "potential": {"variant": "zero", "sites": [0]},
            "x": [0.0], "xi": [0.0], "t": 0.5, "seed": 11,
            "n_paths": 2000, "n_steps": 1,
            "xi_sweep": {"site_index": 0, "start": -1.0, "stop": 1.0, "count": 5},
            "csv_output": str(csv),
        })
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "xi,value_re,value_im,stderr"
        assert len(lines) == 6

    def test_commutator(self, tmp_path):
        csv = tmp_path / "comm.csv"
        code, doc = run("commutator", {
            "potential": harmonic_potential_json(),
            "grid": {"half_width": 10.0, "n_grid": 128, "dim": 1},
            "state": {"center_x": [0.6], "center_xi": [0.6],
                      "width_x": [1.0], "width_xi": [1.0]},
            "t_list": [0.01, 0.05, 0.2, 0.5, 1.0],
            "csv_output": str(csv),
        })
        assert code == 0
        res = doc["results"]
        assert res["state_trace"] == pytest.approx(1.0, abs=1e-10)
        assert res["fit"] is not None
        assert len(res["points"]) == 5
        assert csv.read_text().startswith("t,trace_matrix,trace_symbol")


class TestSinglePass:
    """Each spectral factorization, exponentiation, transform and path set is made once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from weylfk import commutator, oracle

        calls = {"eigh": 0, "semigroup": 0, "transform": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(oracle.GridOracle, "semigroup",
                            counted("semigroup", oracle.GridOracle.semigroup))
        # one call of the band transform is one pass over a kernel's antidiagonals,
        # whether a table is filled from it or the commutator reduces it
        transform = counted("transform", oracle.matrix_symbol_bands)
        for module in (oracle, commutator, cli):  # every module binding of the name
            if hasattr(module, "matrix_symbol_bands"):
                monkeypatch.setattr(module, "matrix_symbol_bands", transform)
        return calls

    def test_oracle_2d(self, calls):
        code, doc = run("oracle", {
            "potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0], [1]],
                          "F": {"name": "harmonic"}, "G": {"name": "lorentzian"}},
            "grid": {"half_width": 8.0, "n_grid": 16, "dim": 2},
            "t": 0.1,
        })
        assert code == 0
        assert doc["results"]["n_centers"] > 0
        # one eigh per symmetry block: inversion and site exchange give four;
        # one band pass over the semigroup factor, and one over the pairing
        # kernel f conj(g)^T of the test functions, which both axes share
        assert calls == {"eigh": 4, "semigroup": 1, "transform": 1 + 1}

    def test_separable_oracle_2d_decomposes_one_axis(self, calls, monkeypatch):
        from weylfk import commutator, oracle

        shapes = {"eigh": [], "transform": [], "kron": []}

        def recorded(key, fn):
            def wrapper(a, *args, **kwargs):
                shapes[key].append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", np.linalg.eigh))
        monkeypatch.setattr(np, "kron", recorded("kron", np.kron))
        transform = recorded("transform", oracle.matrix_symbol_bands)
        for module in (oracle, commutator, cli):
            if hasattr(module, "matrix_symbol_bands"):
                monkeypatch.setattr(module, "matrix_symbol_bands", transform)
        code, doc = run("oracle", {
            "potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0], [1]],
                          "F": {"name": "harmonic"}, "G": {"name": "zero"}},
            "grid": {"half_width": 8.0, "n_grid": 16, "dim": 2},
            "t": 0.1,
        })
        assert code == 0
        assert doc["results"]["n_centers"] > 0
        # one band pass over the pairing kernel f conj(g)^T, then one over the
        # axis factor M_1; both axes share each
        assert shapes == {"eigh": [(16, 16)], "transform": [(16, 16)] * (1 + 1), "kron": []}
        assert calls == {"eigh": 1, "semigroup": 1, "transform": 1 + 1}

    @pytest.mark.parametrize("G, bound", [("zero", 16), ("lorentzian", 18.5)],
                             ids=["separable", "coupled"])
    def test_oracle_memory_bounded(self, G, bound):
        # the 2-d ops of the benchmark.  Separable, n = 64: a dense route peaks
        # near 670 MB; from the axis factors 13.1 MiB was measured in one pass
        # over the symbol (40.9 with cached full-window tables).  Coupled, n =
        # 32: 15.2 MiB (42.6 with a full-window table, an n^4 Wigner table and
        # tiled block products).  Each bound is that + 20%
        tracemalloc.start()
        try:
            code, _ = run("oracle", {
                "potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0], [1]],
                              "F": {"name": "harmonic"}, "G": {"name": G}},
                "grid": {"half_width": 8.0, "n_grid": 64 if G == "zero" else 32, "dim": 2},
                "t": 0.5,
            })
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < bound * 2**20

    SEPARABLE_COMMUTATOR = {
        "potential": {"variant": "nearest_neighbor", "d": 1, "sites": [[0], [1]],
                      "F": {"name": "harmonic"}, "G": {"name": "zero"}},
        "state": {"center_x": [0.2, -0.1], "center_xi": [0.3, 0.1],
                  "width_x": [0.4, 0.4], "width_xi": [0.5, 0.5]},
        "poly": [0.0, 1.0, 0.5], "site_axis": 1,
    }

    def test_separable_commutator_2d_stays_on_axis_factors(self, calls, monkeypatch):
        from weylfk import commutator

        shapes = {"eigh": [], "transform": [], "quantize": [], "kron": []}

        def recorded(key, fn, result=False):
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                shapes[key].append(np.shape(out if result else a))
                return out
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", np.linalg.eigh))
        monkeypatch.setattr(np, "kron", recorded("kron", np.kron))
        monkeypatch.setattr(commutator, "matrix_symbol_bands",
                            recorded("transform", commutator.matrix_symbol_bands))
        monkeypatch.setattr(commutator, "op_weyl_matrix",
                            recorded("quantize", commutator.op_weyl_matrix, result=True))
        t_list = [0.05, 0.1, 0.2]
        code, doc = run("commutator", self.SEPARABLE_COMMUTATOR | {
            "grid": {"half_width": 4.0, "n_grid": 32, "dim": 2}, "t_list": t_list})
        assert code == 0
        assert len(doc["results"]["points"]) == len(t_list)
        n = (32, 32)
        # one transform per factor and time: [A, M_1] on axis 1, M_1 on axis 0
        assert shapes == {"eigh": [n], "transform": [n] * 2 * len(t_list),
                          "quantize": [n, n], "kron": []}
        assert calls == {"eigh": 1, "semigroup": len(t_list), "transform": 2 * len(t_list)}

    def test_separable_commutator_memory_bounded(self):
        # n = 64 on both axes: a route through the Kronecker matrix holds a
        # 4096^2 complex state alone, 256 MiB; from the axis factors 1.33 MiB
        # was measured, and the bound is that + 20%
        tracemalloc.start()
        try:
            code, doc = run("commutator", self.SEPARABLE_COMMUTATOR | {
                "grid": {"half_width": 4.0, "n_grid": 64, "dim": 2}, "t_list": [0.1, 0.2]})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(doc["results"]["points"]) == 2
        assert peak < 1.6 * 2**20

    def test_commutator_one_transform_per_time(self, calls):
        t_list = [0.01, 0.05, 0.2]
        code, _ = run("commutator", {
            "potential": harmonic_potential_json(),
            "grid": {"half_width": 10.0, "n_grid": 128, "dim": 1},
            "state": {"center_x": [0.6], "center_xi": [0.6],
                      "width_x": [1.0], "width_xi": [1.0]},
            "t_list": t_list,
        })
        assert code == 0
        assert calls == {"eigh": 1, "semigroup": len(t_list), "transform": len(t_list)}

    def test_commutator_memory_bounded(self):
        # the 1-d op of the benchmark over the default times: 44.0 MiB measured
        # with B and M reused across times and each band reduced through the
        # state's profiles, with no n^2 index, weight or state table cached
        # (65.5 MiB with them; 97.9 with a full complex table and a transposed
        # copy of the state; 168 MB with a dense phase matrix and a (2n-1)^2
        # quantization table); the bound is that + 20%
        tracemalloc.start()
        try:
            code, doc = run("commutator", {
                "potential": harmonic_potential_json(),
                "grid": {"half_width": 10.0, "n_grid": 1024, "dim": 1},
                "state": {"center_x": [0.6], "center_xi": [0.6],
                          "width_x": [1.0], "width_xi": [1.0]},
            })
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(doc["results"]["points"]) == 7
        assert peak < 53 * 2**20

    @staticmethod
    def sweep_calls(monkeypatch, potential):
        """Sampler and potential calls of a 21-frequency sweep in two chunks, and
        the n_steps of each sampler call."""
        from weylfk import potentials, symbol_estimator

        calls, steps = {"sample": 0, "eval": 0}, []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        sample = counted("sample", symbol_estimator.sample_path_batch)

        def sampler(rng, n_paths, t, n_steps, *args):
            steps.append(n_steps)
            return sample(rng, n_paths, t, n_steps, *args)

        monkeypatch.setattr(symbol_estimator, "sample_path_batch", sampler)
        monkeypatch.setattr(potentials.PairPotential, "eval",
                            counted("eval", potentials.PairPotential.eval))
        code, doc = run("estimate", {
            "potential": potential,
            "x": [0.0], "xi": [0.5], "t": 0.5, "seed": 4,
            "n_paths": 400, "n_steps": 4, "chunk_size": 100,
            "xi_sweep": {"site_index": 0, "start": -1.0, "stop": 1.0, "count": 20},
        })
        assert code == 0
        return calls, steps

    def test_estimate_sweep_samples_one_path_set_per_chunk(self, monkeypatch):
        calls, steps = self.sweep_calls(monkeypatch, {
            "variant": "nearest_neighbor", "d": 1, "sites": [[0]],
            "F": {"name": "harmonic"}, "G": {"name": "zero"}})
        # 200 pairs in two chunks; each chunk weights its forward and backward
        # paths, of the configured 4 steps, once for all 21 frequencies
        assert calls == {"sample": 2, "eval": 4}
        assert steps == [4, 4]

    def test_constant_potential_sweep_weights_one_path(self, monkeypatch):
        calls, steps = self.sweep_calls(monkeypatch, {"variant": "zero", "sites": [0]})
        # the zero potential is constant: one evaluation on the constant path
        # at x weights every path of both chunks, and only the endpoints are
        # read, so each chunk samples one-step paths
        assert calls == {"sample": 2, "eval": 1}
        assert steps == [1, 1]


_WORKER_INVARIANCE_CONFIGS = {
    "linf": ("verify", {"suite": "linf", "seed": 5, "n_points": 4,
                        "n_paths": 8200, "n_steps": 4}),
    "xi-deriv": ("verify", {"suite": "xi-deriv", "seed": 9, "n_points": 2,
                            "betas": ["0:1", "0:2"], "n_paths": 8200, "n_steps": 4}),
    "l1": ("verify", {"suite": "l1", "t": 1.0,
                      "grid": {"half_width": 12.0, "n_grid": 64, "dim": 1}}),
    "mixed-deriv": ("verify", {
        "suite": "mixed-deriv", "seed": 2,
        "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
        "m": 1, "t": 0.5, "alpha": "0:1", "beta": "1:1",
        "lambda_sizes": [2, 3], "n_paths": 8200, "n_steps": 4}),
    # one chunk per probe at the default 4096 paths: only the probe pool splits it
    "mixed-deriv-one-chunk": ("verify", {
        "suite": "mixed-deriv", "seed": 4,
        "family": {"family": "mean_field", "G": {"name": "lorentzian"}},
        "m": 1, "t": 0.5, "alpha": "0:1", "beta": "1:1",
        "lambda_sizes": [2, 3], "n_steps": 4}),
    "class": ("verify", {
        "suite": "class", "seed": 3,
        "family": {"family": "mean_field", "G": {"name": "gaussian_bump"}},
        "m": 1, "t": 0.5, "lambda_size": 2, "n_paths": 8200, "n_steps": 4}),
    "commutator": ("commutator", {
        "potential": harmonic_potential_json(),
        "grid": {"half_width": 10.0, "n_grid": 128, "dim": 1},
        "state": {"center_x": [0.6], "center_xi": [0.6],
                  "width_x": [1.0], "width_xi": [1.0]},
        "t_list": [0.05, 0.2, 1.0]}),
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(_WORKER_INVARIANCE_CONFIGS))
    def test_worker_count_invariance(self, name, tmp_path):
        # n_paths = 8200 makes two chunks, so two workers really split the work
        subcommand, config = _WORKER_INVARIANCE_CONFIGS[name]
        out = tmp_path / "out.json"
        csv = tmp_path / "out.csv"
        config = dict(config, output=str(out), csv_output=str(csv),
                      emit_metadata=False)
        outputs = []
        for workers in (1, 2):
            code, _ = run(subcommand, config, workers=workers)
            assert code == 0
            outputs.append(out.read_bytes() + (csv.read_bytes() if csv.exists() else b""))
        assert outputs[1] == outputs[0]
        assert csv.exists() != (name == "l1")  # l1 writes no rows, every other config does


    def test_rerun_and_worker_count_byte_identical(self, tmp_path):
        out = tmp_path / "est.json"
        csv = tmp_path / "est.csv"
        config = {
            "potential": {
                "variant": "mean_field",
                "sites": [0, 1],
                "G": {"name": "lorentzian"},
            },
            "x": [0.1, -0.2], "xi": [0.5, 0.25], "t": 0.4, "seed": 123,
            "n_paths": 6000, "n_steps": 8, "chunk_size": 512,
            "xi_sweep": {"site_index": 0, "start": -1.0, "stop": 1.0,
                         "count": 3},
            "output": str(out), "csv_output": str(csv),
            "emit_metadata": False,
        }
        outputs = []
        for workers in (1, 3, 1):
            code, _ = run("estimate", config, workers=workers)
            assert code == 0
            outputs.append((out.read_bytes(), csv.read_bytes()))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_metadata_isolated(self, tmp_path):
        config = {
            "potential": {"variant": "zero", "sites": [0]},
            "x": [0.0], "xi": [1.0], "t": 0.5, "seed": 3,
            "n_paths": 2000, "n_steps": 1,
        }
        _, doc1 = run("estimate", config)
        _, doc2 = run("estimate", config)
        doc1.pop("metadata")
        doc2.pop("metadata")
        assert cli.dumps(doc1) == cli.dumps(doc2)


# every `weylfk <subcommand> '<json>'` example of the README, in order
README_EXAMPLES = re.findall(r"^weylfk (\w+) '(.*?)'$",
                             (Path(__file__).parents[1] / "README.md").read_text(),
                             re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("subcommand, config", README_EXAMPLES,
                         ids=[f"{k}-{sub}" for k, (sub, _) in enumerate(README_EXAMPLES)])
def test_readme_example_runs(subcommand, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # examples may write CSV files
    assert cli.main([subcommand, config]) == 0, capsys.readouterr().err


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 7
