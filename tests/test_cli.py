import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LONG_CSV, RAW_RUNS, WIDE_CSV
from rsmopt import cli
from rsmopt.cli import (
    DataError,
    build_report,
    fit_from_config,
    ingest_csv,
    ingest_csv_wide,
    load_config,
    load_model,
    main,
    model_from_doc,
    model_to_doc,
    save_model,
)
from rsmopt.fit import covariance_at, predict, unit_variance
from rsmopt.programs import METHODS, MethodConfig
from rsmopt.solve import SolveResult


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_same_data(got, want):
    assert got.response_names == want.response_names
    assert np.array_equal(got.run_ids, want.run_ids)
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.y, want.y)


class TestIngestLong:
    def test_round_trip_against_raw_table(self):
        data = ingest_csv(LONG_CSV, response_order=["Y1", "Y2"])
        assert data.y.shape == (32, 2)
        assert data.response_names == ("Y1", "Y2")
        # one row per replicate, in run-id order and then replicate order
        assert data.run_ids.tolist() == [run_id for run_id in range(1, 9) for _ in range(4)]
        for run_id, x, y1, y2 in RAW_RUNS:
            rows = data.run_ids == run_id
            assert data.x[rows].tolist() == [list(x)] * 4
            assert data.y[rows, 0].tolist() == y1
            assert data.y[rows, 1].tolist() == y2

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "empty.csv",
                         "run_id,x1,response,replicate,value\n")
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "bad.csv",
                         "run_id,x1,response,value\n1,0,Y1,5\n")
        with pytest.raises(DataError, match="missing columns"):
            ingest_csv(path)

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = write_csv(
            tmp_path, "bad.csv",
            "run_id,x1,response,replicate,value\n"
            "1,0,Y1,1,5.0\n"
            "1,0,Y1,2,oops\n",
        )
        with pytest.raises(DataError, match=r"bad\.csv:3"):
            ingest_csv(path)

    def test_inconsistent_factors(self, tmp_path):
        path = write_csv(
            tmp_path, "bad.csv",
            "run_id,x1,response,replicate,value\n"
            "1,0,Y1,1,5.0\n"
            "1,0.5,Y1,2,5.0\n",
        )
        with pytest.raises(DataError, match="inconsistent factor settings"):
            ingest_csv(path)

    def test_replicate_sets_must_match(self, tmp_path):
        path = write_csv(
            tmp_path, "bad.csv",
            "run_id,x1,response,replicate,value\n"
            "1,0,Y1,1,5.0\n"
            "1,0,Y1,2,5.1\n"
            "1,0,Y2,1,7.0\n",
        )
        with pytest.raises(DataError, match="replicate sets differ"):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            ingest_csv(tmp_path / "nope.csv")


class TestIngestWide:
    def test_matches_long_format(self):
        assert_same_data(ingest_csv_wide(WIDE_CSV, response_order=["Y1", "Y2"]),
                         ingest_csv(LONG_CSV, response_order=["Y1", "Y2"]))

    def test_bad_response_order(self):
        with pytest.raises(DataError, match="does not"):
            ingest_csv_wide(WIDE_CSV, response_order=["Y1", "Y3"])

    def test_both_layouts_fit_bit_for_bit(self, run_config):
        wide = fit_from_config(run_config, ingest_csv_wide(WIDE_CSV, response_order=["Y1", "Y2"]))
        long = fit_from_config(run_config, ingest_csv(LONG_CSV, response_order=["Y1", "Y2"]))
        for key in ("b_hat", "sigma_hat", "xtx_inv", "residuals"):
            assert np.array_equal(getattr(wide, key), getattr(long, key)), key

    def test_needs_id_column(self, tmp_path):
        path = write_csv(tmp_path, "bad.csv", "x1,Y1_1\n0,5.0\n")
        with pytest.raises(DataError, match="needs ID"):
            ingest_csv_wide(path)


@pytest.mark.parametrize("reader, text", [
    (ingest_csv, "run_id,x1,x3,response,replicate,value\n1,-1,-1,Y1,1,5.0\n"),
    (ingest_csv_wide, "ID,x1,x3,Y1_1,Y1_2\n1,-1,-1,5.0,5.1\n"),
], ids=["long", "wide"])
def test_factor_columns_with_a_gap_are_rejected(tmp_path, reader, text):
    path = write_csv(tmp_path, "gap.csv", text)
    with pytest.raises(DataError, match="factor columns must be x1..xn"):
        reader(path)


@pytest.mark.parametrize("reader, path", [(ingest_csv, LONG_CSV),
                                          (ingest_csv_wide, WIDE_CSV)])
def test_padded_header_loads_the_same_data(tmp_path, reader, path):
    header, body = path.read_text().split("\n", 1)
    padded = write_csv(tmp_path, "padded.csv", " , ".join(header.split(",")) + "\n" + body)
    assert_same_data(reader(padded, response_order=["Y1", "Y2"]),
                     reader(path, response_order=["Y1", "Y2"]))


@pytest.mark.parametrize("reader, path", [(ingest_csv, LONG_CSV),
                                          (ingest_csv_wide, WIDE_CSV)])
def test_repeated_name_in_response_order_is_data_error(reader, path):
    with pytest.raises(DataError, match="does not"):
        reader(path, response_order=["Y1", "Y1", "Y2"])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def replicated_tables(draw):
    """Response names and runs (id, factor settings, replicate x response
    values) of a table that both layouts can hold."""
    n = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["Y1", "Y2", "yield", "y_b"]),
                          min_size=1, max_size=3, unique=True))
    m = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=6, unique=True))
    runs = [(run_id, draw(st.lists(FINITE, min_size=n, max_size=n)),
             draw(st.lists(st.lists(FINITE, min_size=len(names), max_size=len(names)),
                           min_size=m, max_size=m)))
            for run_id in ids]
    return n, names, runs


@settings(max_examples=60, deadline=None)
@given(table=replicated_tables(), data=st.data())
def test_both_layouts_of_a_table_ingest_the_same(tmp_path_factory, table, data):
    n, names, runs = table
    x_head = ",".join(f"x{i + 1}" for i in range(n))
    long_rows = [",".join(map(repr, [run_id, *x])) + f",{name},{rep + 1},{y[rep][k]!r}"
                 for run_id, x, y in runs for rep in range(len(y))
                 for k, name in enumerate(names)]
    wide_rows = [",".join(map(repr, [run_id, *x, *np.transpose(y).ravel().tolist()]))
                 for run_id, x, y in runs]
    m = len(runs[0][2])
    wide_head = ",".join(f"{name}_{rep + 1}" for name in names for rep in range(m))
    folder = tmp_path_factory.mktemp("layouts")
    long = write_csv(folder, "long.csv", "\n".join(
        [f"run_id,{x_head},response,replicate,value", *data.draw(st.permutations(long_rows))]))
    wide = write_csv(folder, "wide.csv", "\n".join(
        [f"ID,{x_head},{wide_head}", *data.draw(st.permutations(wide_rows))]))
    got = ingest_csv(long, response_order=names)
    assert_same_data(got, ingest_csv_wide(wide, response_order=names))
    # one row per replicate, in run-id order and then replicate order
    rows = [(run_id, x.tolist(), y.tolist()) for run_id, x, y in zip(got.run_ids, got.x, got.y)]
    assert rows == [(run_id, x, y_rep) for run_id, x, y in sorted(runs) for y_rep in y]


class TestModelPersistence:
    def test_round_trip_exact(self, example_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(example_model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(5)
        for x in rng.uniform(-1, 1, size=(20, 3)):
            assert np.max(np.abs(
                predict(loaded, x) - predict(example_model, x)
            )) < 1e-12
            assert abs(
                unit_variance(loaded, x) - unit_variance(example_model, x)
            ) < 1e-12

    def test_doc_fields(self, example_model):
        doc = model_to_doc(example_model)
        assert doc["N"] == 32 and doc["p"] == 7 and doc["r"] == 2
        assert doc["b_hat"][0][1] == pytest.approx(70.45, abs=0.01)
        loaded = model_from_doc(doc)
        assert np.allclose(np.diag(loaded.xtx_inv), 1 / 32, atol=1e-9)


MODEL_ARRAYS = ("b_hat", "sigma_hat", "xtx_inv", "residuals")


class TestCommands:
    @pytest.fixture()
    def model_path(self, tmp_path, run_config):
        path = tmp_path / "model.json"
        rc = main(["fit", "--config", str(run_config_path()), "--out", str(path)])
        assert rc == 0
        return path

    def test_eval_known_point(self, model_path, tmp_path, capsys):
        rc = main(["eval", "--model", str(model_path), "--x", "1,1,-1"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["y_hat"] == pytest.approx([104.612, 73.574], abs=0.01)
        assert record["q"] == pytest.approx(0.21875)

    def test_eval_dimension_mismatch(self, model_path):
        assert main(["eval", "--model", str(model_path), "--x", "1,1"]) == 2

    @pytest.mark.parametrize("x", ["nan,0,0", "inf,0,0", "0,-inf,0", "0,0,NaN"])
    def test_eval_non_finite_point_is_data_error(self, model_path, x, capsys):
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--x", x]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--x must be finite" in err

    @pytest.mark.parametrize("x, bad", [("True,0,0", "True"), ("0,,1", ""), ("0,1,x", "x")])
    def test_eval_coordinate_not_a_number_is_data_error_naming_it(self, model_path, x,
                                                                  bad, capsys):
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--x", x]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [f"data error: --x must hold numbers, got {bad!r}"]

    def test_unknown_method_is_usage_error(self, capsys):
        rc = main(["optimize", "--config", str(run_config_path()),
                   "--method", "no-such-method"])
        assert rc == 1
        assert "unknown method" in capsys.readouterr().err

    def test_unconfigured_method_is_usage_error(self, small_config, capsys):
        rc = main(["optimize", "--config", str(small_config),
                   "--method", "goal-programming"])
        assert rc == 1
        assert "not configured" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert main(["report", "--config", "does/not/exist.json"]) == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_ball_without_grid_nodes_is_data_error(self, small_config, tmp_path, capsys):
        doc = json.loads(small_config.read_text())
        # the coarse grid's 0.1 step puts no node inside a 0.05 ball
        doc["region"] = {"kind": "hypersphere", "radius": 0.05, "dim": 3}
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(doc))
        rc = main(["optimize", "--config", str(path), "--method", "v-model"])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "no grid node" in err

    @pytest.mark.parametrize("edit", [
        lambda doc: {"n": 3, "terms": ["1", "x1"]},
        lambda doc: {**doc, "b_hat": doc["b_hat"][:-1]},
        lambda doc: {**doc, "sigma_hat": doc["sigma_hat"][0]},
        lambda doc: {**doc, "residuals": doc["residuals"][:-1]},
        lambda doc: {**doc, "terms": doc["terms"][:-1]},
        lambda doc: {**doc, "terms": ["x1^0"] + doc["terms"][1:]},
    ], ids=["missing keys", "b_hat rows", "sigma_hat shape", "residual rows",
            "terms vs p", "zero exponent"])
    def test_malformed_model_is_data_error(self, model_path, tmp_path, edit, capsys):
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(edit(json.loads(model_path.read_text()))))
        capsys.readouterr()
        assert main(["eval", "--model", str(bad), "--x", "1,1,-1"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("data error: ")

    def test_model_that_is_not_json_is_data_error_naming_the_file(self, tmp_path,
                                                                  capsys):
        path = tmp_path / "truncated_model.json"
        path.write_text('{"n": 3, ')
        assert main(["eval", "--model", str(path), "--x", "1,1,-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"data error: bad model {path}: Expecting property name enclosed in "
            f"double quotes: line 1 column 10 (char 9)"]

    @pytest.mark.parametrize("key, bad, message", [
        *[(key, bad, f"{key} must be finite")
          for key in MODEL_ARRAYS for bad in (float("nan"), float("inf"), float("-inf"))],
        *[(key, bad, f"{key} must hold numbers, got {bad!r}")
          for key in MODEL_ARRAYS for bad in (True, False, "1")],
        *[(key, bad, f"{key} must be an integer >= 1, got {bad!r}")
          for key in ("n", "r", "N", "p") for bad in (32.7, 2.9, True, "7")],
    ])
    def test_model_entry_that_is_not_a_finite_number_is_data_error(
            self, model_path, tmp_path, key, bad, message, capsys):
        """Every number in a model file goes through one rule: JSON's NaN,
        Infinity, true, false or a string in an array is a data error naming
        the array, and a count must be an integer (32.7 is not truncated)."""
        doc = json.loads(model_path.read_text())
        if key in MODEL_ARRAYS:
            doc[key][0][0] = bad
        else:
            doc[key] = bad
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity tokens
        capsys.readouterr()
        assert main(["eval", "--model", str(path), "--x", "0.5,0.5,0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [f"data error: bad model: {message}"]

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "model must be an object, got list"),
        (lambda doc: 5, "model must be an object, got int"),
        (lambda doc: doc["sigma_hat"][0].__setitem__(1, doc["sigma_hat"][0][1] + 1e-3),
         "sigma_hat is not symmetric"),
        (lambda doc: doc["xtx_inv"][2].__setitem__(0, 1e-6), "xtx_inv is not symmetric"),
    ], ids=["list", "number", "sigma_hat", "xtx_inv"])
    def test_model_that_is_not_an_object_or_not_symmetric_is_data_error(
            self, model_path, tmp_path, edit, message, capsys):
        """fit writes both covariance factors exactly symmetric, and JSON
        floats round-trip, so one edited off-diagonal entry is a bad file."""
        doc = json.loads(model_path.read_text())
        doc = edit(doc) or doc
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--model", str(path), "--x", "0.5,0.5,0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"data error: bad model: {message}"]

    def test_import_does_not_load_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rsmopt.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_report_does_not_load_scipy(self, tmp_path):
        """The Halton starts, the normal quantile and the local solver are
        numpy and the standard library: a whole report loads no scipy
        module, which keeps its peak memory at about half of what
        ``scipy.optimize`` alone would add."""
        from conftest import CONFIG_PATH

        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, rsmopt.cli; "
                f"rc = rsmopt.cli.main(['report', '--config', {str(CONFIG_PATH)!r}, "
                f"'--out', {str(tmp_path / 'report.md')!r}]); "
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    def test_optimize_v_model(self, small_config, tmp_path):
        out = tmp_path / "row.json"
        rc = main(["optimize", "--config", str(small_config),
                   "--method", "v-model", "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text())
        assert row["x"] == pytest.approx([0, 0, 0], abs=1e-4)
        assert row["F"] == pytest.approx(1.0, abs=1e-6)


@pytest.fixture()
def unreachable_config(small_config):
    """modified-e-epsilon on the radius-1.2 ball, where no point meets its
    targets (103, 73)."""
    doc = json.loads(small_config.read_text())
    doc["region"] = {"kind": "hypersphere", "radius": 1.2, "dim": 3}
    doc["methods"] = [{"name": "modified-e-epsilon", "tau": [103, 73]}]
    small_config.write_text(json.dumps(doc))
    return small_config


def test_optimize_with_unreachable_targets_exits_3(unreachable_config, tmp_path, capsys):
    out = tmp_path / "row.json"
    rc = main(["optimize", "--config", str(unreachable_config),
               "--method", "modified-e-epsilon", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("solver failed: max residual ")
    row = json.loads(out.read_text())
    assert row["converged"] is False
    assert max(row["residuals"]) > 1e-3


def test_optimize_unconverged_without_residuals_exits_3(small_config, tmp_path, capsys,
                                                       monkeypatch):
    """An unconstrained solve that ends short of a first-order point (at the
    iteration limit, say) has no residuals to report; it is still one line
    and exit 3."""
    def unconverged(program, k):
        return SolveResult(x_star=np.zeros(3), f_star=1.0, constraint_residuals=np.zeros(0),
                           evaluations=1, converged=False)

    monkeypatch.setattr(cli, "multistart", unconverged)
    out = tmp_path / "row.json"
    rc = main(["optimize", "--config", str(small_config),
               "--method", "v-model", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.strip().splitlines() == ["solver failed: max residual 0"]
    assert json.loads(out.read_text())["converged"] is False


def test_report_with_unreachable_targets_exits_3(unreachable_config, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["report", "--config", str(unreachable_config),
               "--format", "json", "--out", str(out)])
    assert rc == 3
    report = json.loads(out.read_text())
    assert report["failed"] is True
    assert report["rows"][0]["converged"] is False


def run_config_path():
    from conftest import CONFIG_PATH

    return CONFIG_PATH


@pytest.fixture()
def small_config(tmp_path):
    """Trimmed two-method config pointing at the shipped wide CSV."""
    doc = {
        "data": str(WIDE_CSV),
        "wide": True,
        "responses": ["Y1", "Y2"],
        "terms": ["1", "x1", "x2", "x3", "x1*x2", "x1*x3", "x2*x3"],
        "region": {"kind": "hypercube", "lower": [-1, -1, -1], "upper": [1, 1, 1]},
        "solver": {"multistart": 2},
        "methods": [
            {"name": "v-model"},
            {"name": "mean-weighting", "w": [0.285, 0.715]},
        ],
        "fixed_points": [{"label": "baseline", "x": [1, 1, -1]}],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("level, key", [
    ("top", "methdos"),
    ("top", "format"),
    ("region", "radious"),
    ("solver", "multistrat"),
    ("solver", "resolution"),
    ("solver", "penalty_schedule"),
    ("method", "variance_scal"),
    ("fixed point", "lable"),
])
def test_unknown_config_key_is_data_error(small_config, level, key, capsys):
    doc = json.loads(small_config.read_text())
    target = {"top": doc, "region": doc["region"], "solver": doc["solver"],
              "method": doc["methods"][0], "fixed point": doc["fixed_points"][0]}[level]
    target[key] = 1
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert repr(key) in err


# The config fields each method reads; a method config may set no other.
METHOD_READS = {
    "v-model": set(),
    "mean-weighting": {"w"},
    "modified-e-weighting": {"w", "r1"},
    "modified-e-epsilon": {"tau"},
    "p-model-weighting": {"tau", "w"},
    "p-model-epsilon": {"tau", "primary", "epsilon"},
    "kataoka-weighting": {"w", "confidence"},
    "kataoka-epsilon": {"tau", "primary", "confidence"},
    "goal-programming": {"tau", "w", "confidence"},
}
# A value of each method field that every method reading it accepts.
FIELD_VALUES = {"tau": [103, 73], "w": [0.5, 0.5], "confidence": 0.95, "r1": 0.5,
                "primary": 2, "epsilon": [1, 0]}
# Keys that are no field at all: r2 is always 1 - r1, and the variance scale
# is always N, the fit's observation count.
NOT_FIELDS = {"r2": 0.5, "variance_scale": 32}


def method_doc(name, **extra):
    """A config entry for method ``name`` that sets every field it reads."""
    return {"name": name, **copy.deepcopy({k: FIELD_VALUES[k] for k in METHOD_READS[name]}),
            **extra}


def test_each_method_reads_the_fields_of_its_table_row():
    assert {name: set(reads) for name, (_, reads) in METHODS.items()} == METHOD_READS
    assert sum(map(len, METHOD_READS.values())) == 17
    assert set(FIELD_VALUES) == {f.name for f in dataclasses.fields(MethodConfig)}


@pytest.mark.parametrize("method", sorted(METHOD_READS))
def test_method_with_every_field_it_reads_loads(small_config, method):
    doc = json.loads(small_config.read_text())
    doc["methods"] = [method_doc(method)]
    small_config.write_text(json.dumps(doc))
    [spec] = load_config(small_config).methods
    for key in METHOD_READS[method]:
        assert np.array_equal(getattr(spec.config, key), FIELD_VALUES[key])


@pytest.mark.parametrize("method, key", [
    *[pytest.param(method, key, id=f"{method} {key}")
      for method, reads in sorted(METHOD_READS.items())
      for key in sorted(FIELD_VALUES) if key not in reads],
    pytest.param("modified-e-weighting", "r2", id="modified-e-weighting r2"),
    *[pytest.param(method, "variance_scale", id=f"{method} variance_scale")
      for method in sorted(METHOD_READS)],
])
def test_method_field_the_method_does_not_read_is_data_error(small_config, method, key,
                                                             capsys, no_solve):
    """A field another method reads does nothing here, so it is an unknown
    key; r2 and variance_scale are no key at all (the E-model's variance
    weight is 1 - r1, and every method scores the variance as N*q)."""
    doc = json.loads(small_config.read_text())
    doc["methods"] = [method_doc(method, **{key: {**FIELD_VALUES, **NOT_FIELDS}[key]})]
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [
        f"data error: bad config {small_config}: unknown key {key!r} in method {method!r}"]


@pytest.mark.parametrize("command", ["report", "optimize"])
def test_unknown_method_in_config_is_data_error_naming_it(small_config, command, capsys,
                                                          no_solve):
    doc = json.loads(small_config.read_text())
    doc["methods"].append({"name": "no-such-method"})
    small_config.write_text(json.dumps(doc))
    argv = [command, "--config", str(small_config)]
    if command == "optimize":
        argv += ["--method", "v-model"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [
        f"data error: bad config {small_config}: unknown method 'no-such-method'"]


@pytest.mark.parametrize("command", ["report", "optimize"])
def test_method_named_twice_is_data_error_naming_it(small_config, command, capsys,
                                                    no_solve):
    doc = json.loads(small_config.read_text())
    doc["methods"].append({"name": "v-model"})
    small_config.write_text(json.dumps(doc))
    argv = [command, "--config", str(small_config)]
    if command == "optimize":
        argv += ["--method", "v-model"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [
        f"data error: bad config {small_config}: method 'v-model' is repeated"]


def _without(key):
    return lambda target: target.pop(key)


@pytest.mark.parametrize("where, edit, message", [
    ("method", _without("name"), "method has no 'name'"),
    ("fixed point", _without("label"), "fixed point has no 'label'"),
    ("fixed point", _without("x"), "fixed point has no 'x'"),
    ("top", _without("data"), "config has no 'data'"),
    ("top", _without("terms"), "config has no 'terms'"),
    ("top", _without("region"), "config has no 'region'"),
    ("region", _without("kind"), "region has no 'kind'"),
    ("top", lambda doc: doc["methods"].append(5), "method must be an object"),
    ("top", lambda doc: doc["fixed_points"].append([1, 1, -1]),
     "fixed point must be an object"),
    ("top", lambda doc: doc.update(methods={"name": "v-model"}),
     "methods must be a list, got {'name': 'v-model'}"),
    ("top", lambda doc: doc.update(fixed_points={"label": "a", "x": [0, 0, 0]}),
     "fixed_points must be a list, got {'label': 'a', 'x': [0, 0, 0]}"),
    ("method", lambda m: m.update(name=["v-model"]),
     "method name must be a string, got ['v-model']"),
    ("region", lambda region: region.update(kind=["hypercube"]),
     "region kind must be a string, got ['hypercube']"),
    ("top", lambda doc: doc.update(data=5), "data must be a string, got 5"),
    *[("fixed point", lambda fp, label=label: fp.update(label=label),
       f"fixed point label must be a string, got {label!r}") for label in (5, None, [1])],
], ids=["method name", "fixed point label", "fixed point x", "data", "terms", "region",
        "region kind", "method 5", "fixed point list", "methods object",
        "fixed_points object", "name list", "kind list", "data number", "label number",
        "label null", "label list"])
def test_missing_or_mistyped_config_key_is_data_error_naming_it(small_config, where, edit,
                                                                message, capsys, no_solve):
    """Through the default markdown report, which joins each fixed point's
    label as text."""
    doc = json.loads(small_config.read_text())
    edit({"top": doc, "region": doc["region"], "method": doc["methods"][0],
          "fixed point": doc["fixed_points"][0]}[where])
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"data error: bad config {small_config}: {message}"]


def test_config_that_is_not_json_is_data_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"data": ')
    assert main(["report", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [
        f"data error: bad config {path}: Expecting value: line 1 column 10 (char 9)"]


def test_unknown_region_kind_is_data_error(small_config, capsys):
    doc = json.loads(small_config.read_text())
    doc["region"]["kind"] = "cube"
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "unknown region kind 'cube'" in err


def test_region_key_of_the_other_kind_is_data_error(small_config, capsys):
    """A ball given box bounds would otherwise drop them without a word."""
    doc = json.loads(small_config.read_text())
    doc["region"].update(kind="hypersphere", radius=1.2, dim=3)
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [
        f"data error: bad config {small_config}: a hypersphere takes no lower or upper"]


@pytest.mark.parametrize("terms", ["1", "x1", 1, {"1": 1}],
                         ids=["intercept string", "term string", "number", "object"])
def test_terms_not_a_list_is_data_error(small_config, terms, capsys):
    doc = json.loads(small_config.read_text())
    doc["terms"] = terms
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "terms must be a list of term names" in err


@pytest.mark.parametrize("terms, repeated", [
    (["1", "x1*x2", "x2*x1"], "x1*x2"),
    (["1", "x1", "x1^1"], "x1"),
])
def test_duplicate_term_is_data_error_naming_it(small_config, terms, repeated, capsys):
    doc = json.loads(small_config.read_text())
    doc["terms"] = terms
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"duplicate monomial {repeated!r}" in err


@pytest.mark.parametrize("method, message", [
    ({"name": "modified-e-epsilon", "tau": [103, 73, 1]},
     "tau must have one entry per response (2), got [103.0, 73.0, 1.0]"),
    ({"name": "modified-e-epsilon", "tau": [103]},
     "tau must have one entry per response (2), got [103.0]"),
    ({"name": "kataoka-weighting", "w": [0.2, 0.3, 0.5]},
     "w must have one entry per response (2)"),
    ({"name": "p-model-epsilon", "tau": [103, 73], "primary": 2,
      "epsilon": [3.9753, 0, 0]},
     "epsilon must have one entry per response (2)"),
    ({"name": "kataoka-epsilon", "tau": [103, 73], "primary": 3},
     "primary must be a response number in 1..2, got 3"),
    ({"name": "kataoka-epsilon", "tau": [103, 73], "primary": 0},
     "primary must be an integer >= 1, got 0"),
    ({"name": "kataoka-epsilon", "tau": [103, 73], "primary": 1.5},
     "primary must be an integer >= 1, got 1.5"),
    ({"name": "kataoka-epsilon", "tau": [103, 73], "primary": True},
     "primary must be an integer >= 1, got True"),
], ids=["tau long", "tau short", "w long", "epsilon long", "primary 3",
        "primary 0", "primary 1.5", "primary true"])
def test_method_that_does_not_fit_the_responses_is_data_error(small_config, method,
                                                               message, capsys,
                                                               no_solve):
    doc = json.loads(small_config.read_text())
    doc["methods"].append(method)
    small_config.write_text(json.dumps(doc))
    for argv in (["report"], ["optimize", "--method", method["name"]]):
        assert main(argv + ["--config", str(small_config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert f"method {method['name']!r}" in err and message in err


@pytest.fixture()
def no_solve(monkeypatch):
    """Make any solve fail the test: a config error must stop a command
    before its first ``multistart``."""
    def multistart(*args, **kwargs):
        raise AssertionError("multistart called")

    monkeypatch.setattr(cli, "multistart", multistart)


# Every numeric config key, as (where, key, kind): kind is "array", "number"
# or, for an integer key, its least value. "ball" is the region key of a
# hypersphere, "region" that of the small config's hypercube.
NUMERIC_CONFIG_KEYS = [
    ("region", "lower", "array"), ("region", "upper", "array"),
    ("ball", "radius", "number"), ("ball", "dim", 1),
    ("fixed point", "x", "array"),
    ("solver", "multistart", 1),
    *[("method", key, "array") for key in ("tau", "w", "epsilon")],
    *[("method", key, "number") for key in ("confidence", "r1")],
    ("method", "primary", 1),
]


def key_method(where, key):
    """The method the numeric key case of (where, key) configures: the first
    of three methods, which together read every method key, that reads it."""
    if where != "method":
        return "kataoka-epsilon"
    return next(name for name in ("kataoka-epsilon", "p-model-epsilon", "modified-e-weighting")
                if key in METHOD_READS[name])


KEY_PREFIX = {"region": "", "ball": "", "fixed point": "fixed point 'baseline' ",
              "solver": "solver "}


def numeric_key_cases():
    """(where, key, bad value, message) for every numeric config key: JSON's
    true, false, a string, null, NaN and Infinity in every key (in an array,
    as its first entry), and [1], and for an integer key a value below its
    least and two floats."""
    for where, key, kind in NUMERIC_CONFIG_KEYS:
        values = [True, False, "1", None, float("nan"), float("inf"), float("-inf")]
        if kind != "array":
            values.append([1])
        if kind not in ("array", "number"):
            values += [kind - 1, 2.5, 3.0]
        if key == "primary":
            values.remove(None)  # a null primary is unset, as a missing one is
        for bad in values:
            if kind not in ("array", "number"):
                message = f"{key} must be an integer >= {kind}, got {bad!r}"
            elif isinstance(bad, float):
                message = f"{key} must be finite"
            elif bad == [1]:
                message = f"{key} must have shape (), got (1,)"
            else:
                noun = "hold numbers" if kind == "array" else "be a number"
                message = f"{key} must {noun}, got {bad!r}"
            prefix = (f"method {key_method(where, key)!r}: " if where == "method"
                      else KEY_PREFIX[where])
            yield pytest.param(where, key, bad, prefix + message,
                               id=f"{where} {key} {json.dumps(bad)}")


@pytest.mark.parametrize("where, key, bad, message", numeric_key_cases())
def test_numeric_config_key_that_is_not_a_number_is_data_error(small_config, where, key,
                                                               bad, message, capsys,
                                                               no_solve):
    """One rule for every number in a config: true, a string or null is not
    a number, NaN and Infinity are not finite, a scalar is not a list, and
    an integer key takes no float (3.0 included) or out-of-range value."""
    doc = json.loads(small_config.read_text())
    doc["region"] = ({"kind": "hypersphere", "radius": 1.0, "dim": 3} if where == "ball"
                     else doc["region"])
    doc["methods"] = [method_doc(key_method(where, key))]
    target = {"region": doc["region"], "ball": doc["region"], "solver": doc["solver"],
              "fixed point": doc["fixed_points"][0], "method": doc["methods"][0]}[where]
    if isinstance(target[key], list):
        target[key][0] = bad
    else:
        target[key] = bad
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [f"data error: bad config {small_config}: {message}"]


def test_solver_defaults_come_from_solver_settings(small_config):
    doc = json.loads(small_config.read_text())
    del doc["solver"]
    small_config.write_text(json.dumps(doc))
    assert load_config(small_config).solver == cli.SolverSettings(multistart_k=16)
    doc["solver"] = {}
    small_config.write_text(json.dumps(doc))
    assert load_config(small_config).solver == cli.SolverSettings(multistart_k=16)
    doc["solver"] = {"multistart": 3}
    small_config.write_text(json.dumps(doc))
    assert load_config(small_config).solver == cli.SolverSettings(multistart_k=3)


@pytest.mark.parametrize("seed", [0, 3, -1, True, "1", None, 2.5])
def test_solver_seed_is_unknown_key(small_config, seed, capsys, no_solve):
    """The starts are the plain Halton sequence, so a config has no seed to set."""
    doc = json.loads(small_config.read_text())
    doc["solver"]["seed"] = seed
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"data error: bad config {small_config}: unknown key 'seed' in solver"]


@pytest.mark.parametrize("method, field", [
    ({"name": "kataoka-weighting"}, "w"),
    ({"name": "modified-e-epsilon"}, "tau"),
    ({"name": "p-model-epsilon", "tau": [103, 73], "epsilon": [3.9753, 0]}, "primary"),
    ({"name": "p-model-epsilon", "tau": [103, 73], "primary": 2}, "epsilon"),
    ({"name": "kataoka-epsilon", "tau": [103, 73]}, "primary"),
    ({"name": "goal-programming", "tau": [103, 73]}, "w"),
], ids=["kataoka-weighting w", "modified-e-epsilon tau", "p-model-epsilon primary",
        "p-model-epsilon epsilon", "kataoka-epsilon primary", "goal-programming w"])
def test_method_missing_a_field_is_data_error_before_any_solve(small_config, method,
                                                               field, capsys,
                                                               no_solve):
    doc = json.loads(small_config.read_text())
    doc["methods"].append(method)
    small_config.write_text(json.dumps(doc))
    for argv in (["report"], ["optimize", "--method", method["name"]]):
        assert main(argv + ["--config", str(small_config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"data error: method {method['name']!r}: method requires config "
            f"field {field!r}"]


def test_fixed_point_of_the_wrong_length_is_data_error_naming_it(small_config, capsys,
                                                                 no_solve):
    doc = json.loads(small_config.read_text())
    doc["fixed_points"].append({"label": "short", "x": [1, 1]})
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "fixed point 'short' x must have shape (3,), got (2,)" in err


@pytest.mark.parametrize("method, message", [
    ({"name": "kataoka-weighting", "w": [0.5, 0.6]},
     "weights must be nonnegative and sum to 1"),
    ({"name": "kataoka-weighting", "w": [0.5, 0.5], "confidence": 1.0},
     "confidence must lie in (0, 1)"),
    ({"name": "modified-e-weighting", "w": [0.5, 0.5], "r1": 1.5},
     "r1 must lie in [0, 1]"),
    ({"name": "modified-e-weighting", "w": [0.5, 0.5], "r1": -0.1},
     "r1 must lie in [0, 1]"),
], ids=["w", "confidence", "r1 above 1", "r1 below 0"])
def test_bad_method_field_is_data_error_naming_the_method(small_config, method,
                                                          message, capsys, no_solve):
    doc = json.loads(small_config.read_text())
    # in place of the small config's method of that name, which may appear once
    doc["methods"] = [m for m in doc["methods"] if m["name"] != method["name"]] + [method]
    small_config.write_text(json.dumps(doc))
    for argv in (["report"], ["optimize", "--method", method["name"]]):
        assert main(argv + ["--config", str(small_config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert f"method {method['name']!r}: {message}" in err


@pytest.mark.parametrize("responses", [5, "Y1", ["Y1", 2], ["Y1", "Y1", "Y2"]],
                         ids=["number", "string", "non-string entry", "duplicate"])
def test_responses_must_be_a_list_of_distinct_strings(small_config, responses, capsys,
                                                      no_solve):
    doc = json.loads(small_config.read_text())
    doc["responses"] = responses
    small_config.write_text(json.dumps(doc))
    for command in ("fit", "report"):
        argv = [command, "--config", str(small_config)]
        if command == "fit":
            argv += ["--out", str(small_config.with_name("m.json"))]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert f"responses must be a list of distinct strings, got {responses!r}" in err


def test_empty_responses_list_is_data_error(small_config, capsys, no_solve):
    """An empty list names no observed response, so it is no order."""
    doc = json.loads(small_config.read_text())
    doc["responses"] = []
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"data error: {WIDE_CSV}: response order [] does not match "
                   f"observed responses ['Y1', 'Y2']\n")
    with pytest.raises(DataError, match=r"response order \[\] does not match"):
        ingest_csv(LONG_CSV, response_order=[])


def fit_on(config, tmp_path, text, wide):
    """rsmopt fit's exit code with ``text`` as the config's data."""
    doc = json.loads(config.read_text())
    doc.update(data=str(write_csv(tmp_path, "data.csv", text)), wide=wide)
    config.write_text(json.dumps(doc))
    return main(["fit", "--config", str(config), "--out", str(tmp_path / "model.json")])


@pytest.mark.parametrize("wide, path, row", [
    (False, LONG_CSV, "8,1,1,1,Y1,1,999.0"),
    (True, WIDE_CSV, "8,1,1,1,999.0,105.03,99.79,104.92,76.90,77.03,67.99,75.77"),
], ids=["long", "wide"])
def test_repeated_observation_is_data_error(small_config, tmp_path, wide, path, row,
                                            capsys):
    assert fit_on(small_config, tmp_path, path.read_text() + row + "\n", wide) == 2
    assert "run 8, response Y1, replicate 1 is repeated" in capsys.readouterr().err


@pytest.mark.parametrize("wide, path, header, cell, name", [
    (False, LONG_CSV, "run_id,x1,x2,x3,response,replicate,value, value", ",7", "value"),
    (True, WIDE_CSV, "ID,x1,x2,x3,Y1_1,Y1_1,Y1_3,Y1_4,Y2_1,Y2_2,Y2_3,Y2_4", "", "Y1_1"),
], ids=["long", "wide"])
def test_repeated_column_is_data_error(small_config, tmp_path, wide, path, header, cell,
                                       name, capsys):
    """csv.DictReader keeps the last of two equal names, so the first column
    would be dropped without a word; names are compared once stripped."""
    rows = [line + cell for line in path.read_text().splitlines()[1:] if line.strip()]
    assert fit_on(small_config, tmp_path, "\n".join([header, *rows]) + "\n", wide) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"data error: {tmp_path / 'data.csv'}: column {name!r} is repeated"]


def test_long_row_that_stops_before_its_response_is_data_error(small_config, tmp_path,
                                                               capsys):
    text = LONG_CSV.read_text()
    assert fit_on(small_config, tmp_path, text + "9,1,1,1\n", False) == 2
    line = len(text.splitlines()) + 1
    assert f"data.csv:{line}: bad row" in capsys.readouterr().err


@pytest.mark.parametrize("wide, line, column, text", [
    (False, 3, "value", "nan"),
    (False, 5, "x2", "inf"),
    (True, 2, "Y2_4", "1e999"),
    (True, 4, "x1", "-inf"),
], ids=["long value", "long factor", "wide value", "wide factor"])
def test_non_finite_cell_is_a_bad_row(small_config, tmp_path, wide, line, column, text,
                                      capsys):
    """``float`` takes nan, inf and 1e999; a cell must be a finite number."""
    lines = (WIDE_CSV if wide else LONG_CSV).read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[line - 1] = ",".join(cells)
    assert fit_on(small_config, tmp_path, "\n".join(lines) + "\n", wide) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"data error: {tmp_path / 'data.csv'}:{line}: bad row "
                   f"({column} must be finite, got {text!r})\n")


def test_bad_replicate_suffix_is_a_header_error_naming_the_column(small_config, tmp_path,
                                                                  capsys):
    text = WIDE_CSV.read_text().replace("Y2_4", "Y2_x", 1)
    assert fit_on(small_config, tmp_path, text, True) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"data error: {tmp_path / 'data.csv'}: column 'Y2_x' does not end "
                   f"in _<replicate>, an integer\n")


@pytest.mark.parametrize("where, line", [("value cell", 2), ("header", 1)])
def test_line_past_the_csv_field_limit_is_data_error(small_config, tmp_path, where,
                                                     line, capsys):
    # the csv module's default field size limit is 131,072 characters
    lines = LONG_CSV.read_text().splitlines()
    big = "1" * 200_000
    if where == "header":
        lines[0] += f',"{big}"'
    else:
        lines[1] = lines[1].rsplit(",", 1)[0] + f',"{big}"'
    assert fit_on(small_config, tmp_path, "\n".join(lines) + "\n", False) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"data.csv:{line}: bad" in err
    assert "field larger than field limit" in err


@pytest.mark.parametrize("wide, text, message", [
    (True, "ID,x1,x2,x3\n1,0,0,0\n", "no response replicate columns"),
    (False, "", "empty file"),
    (True, "", "empty file"),
], ids=["wide without responses", "empty long", "empty wide"])
def test_csv_without_cells_is_data_error(small_config, tmp_path, wide, text, message,
                                         capsys):
    assert fit_on(small_config, tmp_path, text, wide) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"data error: {tmp_path / 'data.csv'}: {message}\n"


@pytest.mark.parametrize("wide", ["false", "true", 1, None])
def test_wide_must_be_a_boolean(small_config, wide, capsys):
    doc = json.loads(small_config.read_text())
    doc["wide"] = wide
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"wide must be true or false, got {wide!r}" in err


@pytest.mark.parametrize("option", [["--data", str(WIDE_CSV)], ["--wide"]])
def test_fit_takes_its_data_only_from_the_config(small_config, tmp_path, option, capsys):
    argv = ["fit", "--config", str(small_config), "--out", str(tmp_path / "m.json")]
    assert main(argv + option) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(argv) == 0


def test_seed_option_is_usage_error(small_config, capsys, no_solve):
    """The starts are the plain Halton sequence, so no command takes a seed."""
    for command in (["report"], ["optimize", "--method", "v-model"]):
        assert main(command + ["--config", str(small_config), "--seed", "0"]) == 1
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


@pytest.mark.parametrize("term", ["x1^0", "x1^-1", "x1^3", "x", "x1^a", "x4"])
def test_bad_term_in_config_is_data_error(small_config, term, capsys):
    doc = json.loads(small_config.read_text())
    doc["terms"][0] = term
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"bad term {term!r}" in err


class TestReport:
    def test_example_table_is_pinned(self, tmp_path):
        """The worked example's markdown table, recorded from the CLI: every
        digit must stay. modified-e-epsilon's F is the exact constrained
        minimum 3.583 (README "Tests")."""
        from conftest import CONFIG_PATH, ROOT

        out = tmp_path / "report.md"
        assert main(["report", "--config", str(CONFIG_PATH), "--format", "md",
                     "--out", str(out)]) == 0
        assert out.read_text() == (ROOT / "tests" / "data" / "example_report.md").read_text()

    def test_small_report_rows(self, small_config, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["report", "--config", str(small_config),
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == {"rows", "failed"}
        rows = {row["method"]: row for row in report["rows"]}
        assert set(rows) == {"v-model", "mean-weighting", "baseline"}
        fixed = rows["baseline"]
        assert fixed["y_hat"] == pytest.approx([104.612, 73.574], abs=0.01)
        assert fixed["var"] == pytest.approx([0.917, 1.021], abs=0.002)
        assert fixed["cov"] == pytest.approx([0.776], abs=0.002)

    def test_markdown_shape(self, small_config, capsys):
        rc = main(["report", "--config", str(small_config), "--format", "md"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("| method | x1 | x2 | x3 | F |")
        assert len(lines) == 2 + 3  # header, rule, two methods, one fixed point

    def test_a_cell_that_rounds_to_zero_has_no_sign(self):
        row = {"method": "m", "x": [-9.5e-9, -0.0004, -0.0006], "F": -0.0,
               "y_hat": [1e-12], "var": [0.0], "cov": []}
        table = cli.report_markdown({"rows": [row]})
        assert table.splitlines()[2] == "| m | 0.000 | 0.000 | -0.001 | 0.000 | 0.000 | 0.000 |"

    def test_empty_methods_header_only(self, small_config, tmp_path, capsys):
        doc = json.loads(small_config.read_text())
        doc["methods"] = []
        doc["fixed_points"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        rc = main(["report", "--config", str(path), "--format", "md"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_determinism(self, small_config, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["report", "--config", str(small_config),
                       "--format", "json", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_failed_method_keeps_exception_type(self, example_model, small_config,
                                                tmp_path):
        doc = json.loads(small_config.read_text())
        # the coarse grid's 0.1 step puts no node inside a 0.05 ball
        doc["region"] = {"kind": "hypersphere", "radius": 0.05, "dim": 3}
        doc["methods"] = [{"name": "v-model"}]
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(doc))
        report = build_report(example_model, load_config(path))
        assert report["failed"]
        assert report["rows"][0]["error"] == (
            "ValueError: no grid node at resolution 0.1 lies inside the region")

    def test_failed_method_prints_a_row_of_dashes(self, small_config, tmp_path, capsys):
        doc = json.loads(small_config.read_text())
        # the coarse grid's 0.1 step puts no node inside a 0.05 ball
        doc["region"] = {"kind": "hypersphere", "radius": 0.05, "dim": 3}
        doc["methods"] = [{"name": "v-model"}]
        path = tmp_path / "ball.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--config", str(path), "--format", "md"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("| method | x1 | x2 | x3 | F | Y1(x) | Y2(x) | Var(Y1) | Var(Y2) "
                            "| Cov(Y1,Y2) |")
        assert lines[2] == "| v-model |" + " -- |" * 9
        assert lines[3].startswith("| baseline | 1.000 | 1.000 | -1.000 | -- |")

    def test_var_cov_recomputed_from_model(self, example_model, small_config):
        config = load_config(small_config)
        report = build_report(example_model, config)
        for row in report["rows"]:
            if "x" not in row:
                continue
            cov = covariance_at(example_model, np.array(row["x"]))
            assert row["var"] == pytest.approx(np.diag(cov), abs=1e-9)
            assert row["cov"] == pytest.approx([cov[0, 1]], abs=1e-9)
