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


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_same_data(got, want):
    assert got.response_names == want.response_names
    assert [run.run_id for run in got.runs] == [run.run_id for run in want.runs]
    for a, b in zip(got.runs, want.runs):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)


class TestIngestLong:
    def test_round_trip_against_raw_table(self):
        data = ingest_csv(LONG_CSV, response_order=["Y1", "Y2"])
        assert data.n_observations == 32
        assert data.response_names == ("Y1", "Y2")
        by_id = {run.run_id: run for run in data.runs}
        for run_id, x, y1, y2 in RAW_RUNS:
            run = by_id[run_id]
            assert run.x.tolist() == list(x)
            assert run.y[:, 0].tolist() == y1
            assert run.y[:, 1].tolist() == y2

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
    assert [(run.run_id, run.x.tolist(), run.y.tolist()) for run in got.runs] == sorted(runs)


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
        assert "coordinates must be finite" in err

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

    @pytest.mark.parametrize("key", ["b_hat", "sigma_hat", "xtx_inv", "residuals"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_non_finite_model_entry_is_data_error(self, model_path, tmp_path, key, bad,
                                                  capsys):
        doc = json.loads(model_path.read_text())
        doc[key][0][0] = bad
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity tokens
        capsys.readouterr()
        assert main(["eval", "--model", str(path), "--x", "0.5,0.5,0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"data error: model {key} has a non-finite entry"]

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
    doc["methods"] = [{"name": "modified-e-epsilon", "tau": [103, 73],
                       "variance_scale": 32}]
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
        "solver": {"seed": 0, "multistart": 2},
        "methods": [
            {"name": "v-model", "variance_scale": 32},
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


def test_unknown_region_kind_is_data_error(small_config, capsys):
    doc = json.loads(small_config.read_text())
    doc["region"]["kind"] = "cube"
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "unknown region kind 'cube'" in err


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


@pytest.mark.parametrize("edit", [
    lambda doc: doc["fixed_points"][0].update(x=[float("nan"), 0, 0]),
    lambda doc: doc["fixed_points"][0].update(x=[1, float("inf"), -1]),
], ids=["NaN", "Infinity"])
def test_non_finite_fixed_point_is_data_error(small_config, edit, capsys):
    doc = json.loads(small_config.read_text())
    edit(doc)
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "fixed point 'baseline' has a non-finite coordinate" in err


@pytest.mark.parametrize("region, message", [
    ({"kind": "hypercube", "lower": [-1, -1, -1], "upper": [1, float("inf"), 1]},
     "bounds must be finite"),
    ({"kind": "hypercube", "lower": [float("-inf"), -1, -1], "upper": [1, 1, 1]},
     "bounds must be finite"),
    ({"kind": "hypersphere", "radius": float("inf"), "dim": 3},
     "radius must be positive and finite"),
], ids=["upper", "lower", "radius"])
def test_infinite_region_is_data_error(small_config, region, message, capsys):
    doc = json.loads(small_config.read_text())
    doc["region"] = region
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("dim", [0, 2.5, 3.0, "3", None])
def test_hypersphere_dim_not_a_positive_integer_is_data_error(small_config, dim, capsys):
    doc = json.loads(small_config.read_text())
    doc["region"] = {"kind": "hypersphere", "radius": 1.0, "dim": dim}
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"hypersphere dim must be a positive integer, got {dim!r}" in err


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


@pytest.mark.parametrize("method, field", [
    ({"name": "kataoka-weighting"}, "w"),
    ({"name": "modified-e-epsilon", "variance_scale": 32}, "tau"),
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
    assert "fixed point 'short' has 2 coordinates, expected 3" in err


@pytest.mark.parametrize("method, message", [
    ({"name": "kataoka-weighting", "w": [0.5, 0.6]},
     "weights must be nonnegative and sum to 1"),
    ({"name": "kataoka-weighting", "w": [0.5, 0.5], "confidence": 1.0},
     "confidence must lie in (0, 1)"),
    ({"name": "modified-e-weighting", "w": [0.5, 0.5], "r1": 0.7, "r2": 0.7},
     "r1, r2 must be nonnegative with r1 + r2 = 1"),
    ({"name": "v-model", "variance_scale": 0},
     "variance_scale must be positive"),
    # JSON's true and false would otherwise pass as 1 and 0
    ({"name": "v-model", "variance_scale": True},
     "variance_scale must be a number, got True"),
    ({"name": "kataoka-weighting", "w": [0.5, 0.5], "confidence": True},
     "confidence must be a number, got True"),
    ({"name": "modified-e-weighting", "w": [0.5, 0.5], "r1": True, "r2": False},
     "r1 must be a number, got True"),
    ({"name": "modified-e-weighting", "w": [0.5, 0.5], "r1": 1, "r2": False},
     "r2 must be a number, got False"),
    ({"name": "mean-weighting", "w": [True, False]}, "w must hold numbers, not booleans"),
    ({"name": "modified-e-epsilon", "tau": [103, True]},
     "tau must hold numbers, not booleans"),
    ({"name": "p-model-epsilon", "tau": [103, 73], "primary": 2, "epsilon": [False, 0]},
     "epsilon must hold numbers, not booleans"),
], ids=["w", "confidence", "r1 r2", "variance_scale", "variance_scale true",
        "confidence true", "r1 true", "r2 false", "w booleans", "tau boolean",
        "epsilon boolean"])
def test_bad_method_field_is_data_error_naming_the_method(small_config, method,
                                                          message, capsys, no_solve):
    doc = json.loads(small_config.read_text())
    doc["methods"].append(method)
    small_config.write_text(json.dumps(doc))
    for argv in (["report"], ["optimize", "--method", method["name"]]):
        assert main(argv + ["--config", str(small_config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert f"method {method['name']!r}: {message}" in err


@pytest.mark.parametrize("field", ["confidence", "r1", "r2", "variance_scale"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_method_field_is_data_error_naming_the_method(small_config, field,
                                                                 bad, capsys, no_solve):
    """JSON's NaN and Infinity reach MethodConfig as floats; before any
    solve they exit 2, not 0 with F = inf or 3 with a NaN objective."""
    doc = json.loads(small_config.read_text())
    doc["methods"] = [{"name": "modified-e-weighting", "w": [0.5, 0.5], field: bad}]
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [
        f"data error: bad config {small_config}: method 'modified-e-weighting': "
        f"{field} must be finite"]


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


def test_long_row_that_stops_before_its_response_is_data_error(small_config, tmp_path,
                                                               capsys):
    text = LONG_CSV.read_text()
    assert fit_on(small_config, tmp_path, text + "9,1,1,1\n", False) == 2
    line = len(text.splitlines()) + 1
    assert f"data.csv:{line}: bad row" in capsys.readouterr().err


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


@pytest.mark.parametrize("key, value, least", [
    ("multistart", 0, 1), ("multistart", 2.5, 1), ("multistart", True, 1),
    ("seed", -1, 0), ("seed", 1.5, 0), ("seed", True, 0),
])
def test_solver_setting_must_be_an_integer_in_range(small_config, key, value, least,
                                                    capsys):
    doc = json.loads(small_config.read_text())
    doc["solver"][key] = value
    small_config.write_text(json.dumps(doc))
    assert main(["report", "--config", str(small_config)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"solver {key} must be an integer >= {least}, got {value!r}" in err


def test_negative_seed_option_is_usage_error(small_config, capsys):
    for command in (["report"], ["optimize", "--method", "v-model"]):
        assert main(command + ["--config", str(small_config), "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err


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

    def test_empty_methods_header_only(self, small_config, tmp_path, capsys):
        doc = json.loads(small_config.read_text())
        doc["methods"] = []
        doc["fixed_points"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        rc = main(["report", "--config", str(path), "--format", "md"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_determinism_same_seed(self, small_config, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["report", "--config", str(small_config),
                       "--format", "json", "--seed", "7", "--out", str(out)])
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

    def test_var_cov_recomputed_from_model(self, example_model, small_config):
        config = load_config(small_config)
        report = build_report(example_model, config)
        for row in report["rows"]:
            if "x" not in row:
                continue
            cov = covariance_at(example_model, np.array(row["x"]))
            assert row["var"] == pytest.approx(np.diag(cov), abs=1e-9)
            assert row["cov"] == pytest.approx([cov[0, 1]], abs=1e-9)
