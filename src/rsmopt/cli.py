"""Batch front end: ingest CSV data, fit, evaluate, optimize, report.

Subcommands::

    rsmopt fit      --config cfg.json [--out model.json]
    rsmopt eval     --model model.json --x 1,1,-1
    rsmopt optimize --config cfg.json --method kataoka-epsilon [--out path]
    rsmopt report   --config cfg.json [--format json|md] [--out path]

Exit codes: 0 ok, 1 usage error, 2 data error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import programs as prog
from .fit import FittedModel, _check_symmetric, fit_ols, moments
from .model import (ExperimentData, Region, TermSpec, as_integer, as_numbers,
                    build_design_matrix)
from .programs import MethodConfig, ScalarProgram
from .solve import SolveResult, multistart

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class DataError(ValueError):
    pass


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def ingest_csv(path: str | Path, response_order: list[str] | None = None) -> ExperimentData:
    """Read long-format data: run_id,x1..xn,response,replicate,value.

    Responses are ordered by first appearance unless overridden.
    """
    return _read_csv(Path(path), "run_id", _long_layout, response_order)


def ingest_csv_wide(path: str | Path, response_order: list[str] | None = None) -> ExperimentData:
    """Read wide-format data: ID,x1..xn,<resp>_1..<resp>_m per response."""
    return _read_csv(Path(path), "ID", _wide_layout, response_order)


def _long_layout(path: Path, header: list[str]):
    """One (response, replicate, value) cell per row."""
    missing = {"run_id", "response", "replicate", "value"} - set(header)
    if missing:
        raise DataError(f"{path}: missing columns {sorted(missing)}")
    return lambda row: [(row["response"].strip(), int(row["replicate"]),
                         _finite(row, "value"))]


def _wide_layout(path: Path, header: list[str]):
    """A cell per <response>_<replicate> column."""
    if "ID" not in header:
        raise DataError(f"{path}: wide format needs ID and x1..xn columns")
    rep_cols = []
    for h in (h for h in header if "_" in h):
        name, rep = h.rsplit("_", 1)
        try:
            rep_cols.append((h, name, int(rep)))
        except ValueError:
            raise DataError(f"{path}: column {h!r} does not end in _<replicate>, "
                            f"an integer") from None
    if not rep_cols:
        raise DataError(f"{path}: no response replicate columns")
    return lambda row: [(name, rep, _finite(row, h)) for h, name, rep in rep_cols]


def _finite(row: dict, column: str) -> float:
    """``row[column]`` as a finite float (``float`` alone takes nan, inf and 1e999)."""
    value = float(row[column])
    if not math.isfinite(value):
        raise ValueError(f"{column} must be finite, got {row[column]!r}")
    return value


def _read_csv(path: Path, id_col: str, layout, response_order) -> ExperimentData:
    """The data of a CSV file whose rows each give a run id in ``id_col``,
    factor settings in x1..xn (numbered without a gap) and the cells that
    ``layout(path, header)`` maps a row to, once it has checked the
    stripped header, where no name may repeat. A bad or missing cell, or a
    line the csv module cannot parse (a cell past its field size limit,
    say), is a DataError naming its line."""
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            fieldnames = reader.fieldnames
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.reader.line_num}: bad header ({exc})") from exc
        if fieldnames is None:
            raise DataError(f"{path}: empty file")
        header = reader.fieldnames = [h.strip() for h in fieldnames]
        for i, name in enumerate(header):
            if name in header[:i]:  # DictReader would keep only the last column
                raise DataError(f"{path}: column {name!r} is repeated")
        x_cols = sorted(
            (h for h in header if h.startswith("x") and h[1:].isdigit()),
            key=lambda h: int(h[1:]),
        )
        if not x_cols or [int(h[1:]) for h in x_cols] != list(range(1, len(x_cols) + 1)):
            raise DataError(f"{path}: factor columns must be x1..xn")
        cells_of = layout(path, header)
        rows = []
        try:
            for row in reader:
                if None in row.values():  # csv's filler for a short row
                    raise ValueError(f"fewer than {len(header)} cells")
                run = (int(row[id_col]), tuple(_finite(row, c) for c in x_cols))
                rows += [(run, cell) for cell in cells_of(row)]
        except (csv.Error, TypeError, ValueError) as exc:
            # DictReader's own line_num stops at its last whole row
            raise DataError(f"{path}:{reader.reader.line_num}: bad row ({exc})") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return _assemble(rows, response_order, path)


def _assemble(rows, response_order, origin: Path) -> ExperimentData:
    """One row per replicate, in run-id order and then replicate order. Each
    run's factor settings must agree, and its replicate x response table
    must have every cell exactly once."""
    responses = list(dict.fromkeys(resp for _, (resp, _, _) in rows))
    if response_order is not None:
        if len(response_order) != len(responses) or set(response_order) != set(responses):
            raise DataError(f"{origin}: response order {response_order} does not "
                            f"match observed responses {responses}")
        responses = list(response_order)
    by_run: dict[int, tuple[tuple, dict]] = {}
    for (run_id, x), (resp, rep, value) in rows:
        settings, cells = by_run.setdefault(run_id, (x, {}))
        if settings != x:
            raise DataError(f"{origin}: run {run_id} has inconsistent factor settings")
        cells.setdefault((rep, resp), []).append(value)
    table = []
    for run_id in sorted(by_run):
        x, cells = by_run[run_id]
        for rep in sorted({rep for rep, _ in cells}):
            for resp in responses:
                values = cells.get((rep, resp), [])
                if len(values) != 1:
                    fault = ("is repeated" if values else
                             "is missing: replicate sets differ between responses")
                    raise DataError(f"{origin}: run {run_id}, response {resp}, "
                                    f"replicate {rep} {fault}")
            table.append((run_id, x, [cells[rep, resp][0] for resp in responses]))
    run_ids, xs, ys = zip(*table)
    return ExperimentData(np.array(run_ids), np.array(xs), np.array(ys), tuple(responses))


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass
class SolverSettings:
    multistart_k: int = 16  # the most quasi-random starts; ``multistart`` may stop sooner


@dataclass
class MethodSpec:
    name: str
    config: MethodConfig


@dataclass
class RunConfig:
    data_path: str
    terms: TermSpec
    region: Region
    methods: list[MethodSpec] = field(default_factory=list)
    fixed_points: list[tuple[str, np.ndarray]] = field(default_factory=list)
    responses: list[str] | None = None
    wide: bool = False
    solver: SolverSettings = field(default_factory=SolverSettings)


# Accepted config keys, per level (a method's are in prog.METHODS); load_config
# rejects any other key.
CONFIG_KEYS = {"data", "wide", "responses", "terms", "region", "solver",
               "methods", "fixed_points"}
REGION_KEYS = {"kind", "lower", "upper", "radius", "dim"}
SOLVER_KEYS = {"multistart"}
FIXED_POINT_KEYS = {"label", "x"}


def _check_keys(doc: dict, allowed: set[str] | None, where: str,
                required: tuple[str, ...] = ()) -> None:
    """DataError unless ``doc`` is an object that has every ``required``
    key and no key outside ``allowed`` (any key if it is None)."""
    if not isinstance(doc, dict):
        raise DataError(f"{where} must be an object")
    for key in required:
        if key not in doc:
            raise DataError(f"{where} has no {key!r}")
    unknown = sorted(set(doc) - allowed) if allowed is not None else []
    if unknown:
        raise DataError(f"unknown key {', '.join(map(repr, unknown))} in {where}")


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise DataError(f"{what} must be a string, got {value!r}")
    return value


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise DataError(f"{key} must be a list, got {value!r}")
    return value


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        _check_keys(doc, CONFIG_KEYS, "config", ("data", "terms", "region"))
        _check_keys(doc["region"], REGION_KEYS, "region", ("kind",))
        _string(doc["region"]["kind"], "region kind")
        region = Region(**doc["region"])
        terms = TermSpec.from_names(doc["terms"], region.bounding_box()[0].size)
        methods = []
        for m in _list(doc, "methods"):
            # its keys depend on its name, and are checked once that is known
            _check_keys(m, None, "method", ("name",))
            name = _string(m["name"], "method name")
            if name not in prog.METHODS:
                raise ValueError(f"unknown method {name!r}")
            if any(spec.name == name for spec in methods):
                raise ValueError(f"method {name!r} is repeated")
            _check_keys(m, {"name", *prog.METHODS[name][1]}, f"method {name!r}")
            try:
                config = MethodConfig(**{key: m[key] for key in m if key != "name"})
            except (TypeError, ValueError) as exc:
                raise DataError(f"method {name!r}: {exc}") from exc
            methods.append(MethodSpec(name=name, config=config))
        fixed = []
        for fp in _list(doc, "fixed_points"):
            _check_keys(fp, FIXED_POINT_KEYS, "fixed point", ("label", "x"))
            label = _string(fp["label"], "fixed point label")
            fixed.append((label, as_numbers(fp["x"], f"fixed point {label!r} x", (terms.n,))))
        solver_doc = doc.get("solver", {})
        _check_keys(solver_doc, SOLVER_KEYS, "solver")
        solver = SolverSettings()  # the default unless the key is given
        if "multistart" in solver_doc:
            solver.multistart_k = as_integer(solver_doc["multistart"], "solver multistart", 1)
        wide = doc.get("wide", False)
        if not isinstance(wide, bool):
            raise DataError(f"wide must be true or false, got {wide!r}")
        responses = doc.get("responses")
        if responses is not None and (
                not isinstance(responses, list)
                or not all(isinstance(name, str) for name in responses)
                or len(set(responses)) < len(responses)):
            raise DataError(f"responses must be a list of distinct strings, "
                            f"got {responses!r}")
        data_path = _string(doc["data"], "data")
        if not Path(data_path).is_absolute():
            # relative to the config file, not the working directory
            data_path = str((Path(path).resolve().parent / data_path))
        return RunConfig(
            data_path=data_path,
            terms=terms,
            region=region,
            methods=methods,
            fixed_points=fixed,
            responses=responses,
            wide=wide,
            solver=solver,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad config {path}: {exc}") from exc


def _load_data(config: RunConfig) -> ExperimentData:
    reader = ingest_csv_wide if config.wide else ingest_csv
    return reader(config.data_path, response_order=config.responses)


def fit_from_config(config: RunConfig, data: ExperimentData) -> FittedModel:
    X, Y = build_design_matrix(data, config.terms)
    return fit_ols(X, Y, config.terms)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def model_to_doc(model: FittedModel) -> dict:
    return {
        "n": model.terms.n,
        "terms": model.terms.term_names(),
        "b_hat": model.b_hat.tolist(),
        "sigma_hat": model.sigma_hat.tolist(),
        "xtx_inv": model.xtx_inv.tolist(),
        "residuals": model.residuals.tolist(),
        "N": model.n_obs,
        "p": model.p,
        "r": model.r,
    }


def model_from_doc(doc: dict) -> FittedModel:
    """Inverse of model_to_doc; DataError for a doc that is not an object, a
    missing key, a count n, r, N or p that is not an integer >= 1, an array
    that is not of finite numbers (JSON's NaN and Infinity are not) in the
    shape p, r and N give, or a sigma_hat or xtx_inv that is not symmetric
    (``fit_ols`` writes both exactly symmetric)."""
    if not isinstance(doc, dict):
        raise DataError(f"bad model: model must be an object, got {type(doc).__name__}")
    try:
        n, r, n_obs, p = (as_integer(doc[key], key, 1) for key in ("n", "r", "N", "p"))
        terms = TermSpec.from_names(doc["terms"], n)
        if p != terms.p:
            raise ValueError(f"p is {p} but there are {terms.p} terms")
        shapes = {"b_hat": (p, r), "sigma_hat": (r, r), "xtx_inv": (p, p),
                  "residuals": (n_obs, r)}
        arrays = {key: as_numbers(doc[key], key, shape) for key, shape in shapes.items()}
        for key in ("sigma_hat", "xtx_inv"):
            _check_symmetric(arrays[key], name=key)
    except KeyError as exc:
        raise DataError(f"model has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad model: {exc}") from exc
    return FittedModel(terms=terms, n_obs=n_obs, **arrays)


def save_model(model: FittedModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_doc(model), indent=2) + "\n")


def load_model(path: str | Path) -> FittedModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"bad model {path}: {exc}") from exc
    return model_from_doc(doc)


# ---------------------------------------------------------------------------
# Report rows
# ---------------------------------------------------------------------------

def build_program(model: FittedModel, spec: MethodSpec, region: Region) -> ScalarProgram:
    """The method's program; DataError naming the method if its config does
    not fit the model."""
    try:
        return prog.METHODS[spec.name][0](model, spec.config, region=region)
    except ValueError as exc:
        raise DataError(f"method {spec.name!r}: {exc}") from exc


def _row_from_x(model: FittedModel, label: str, x: np.ndarray,
                f_star: float | None = None,
                residuals: np.ndarray | None = None,
                converged: bool | None = None) -> dict:
    # Var/Cov columns are always recomputed from the model at x.
    y_hat, q = moments(model, x)
    cov = q * model.sigma_hat
    return {
        "method": label,
        "x": [float(v) for v in x],
        "F": None if f_star is None else float(f_star),
        "y_hat": [float(v) for v in y_hat],
        "var": [float(cov[k, k]) for k in range(model.r)],
        "cov": [
            float(cov[j, k])
            for j in range(model.r) for k in range(j + 1, model.r)
        ],
        "residuals": [] if residuals is None else [float(v) for v in residuals],
        "converged": converged,
    }


def optimize_method(model: FittedModel, spec: MethodSpec, program: ScalarProgram,
                    solver: SolverSettings) -> tuple[SolveResult, dict]:
    result = multistart(program, k=solver.multistart_k)
    row = _row_from_x(
        model, spec.name, result.x_star,
        f_star=result.f_star,
        residuals=result.constraint_residuals,
        converged=result.converged,
    )
    return result, row


def build_report(model: FittedModel, config: RunConfig) -> dict:
    """A row per method, then per fixed point. Every program is built before
    any solve, so a config error raises DataError; a failed solve is a row."""
    programs = [build_program(model, spec, config.region) for spec in config.methods]
    rows = []
    failed = False
    for spec, program in zip(config.methods, programs):
        try:
            result, row = optimize_method(model, spec, program, config.solver)
            if not result.converged:
                row["error"] = "did not converge"
                failed = True
        except Exception as exc:  # one bad method must not sink the report
            row = {"method": spec.name, "error": f"{type(exc).__name__}: {exc}",
                   "converged": False}
            failed = True
        rows.append(row)
    for label, x in config.fixed_points:
        rows.append(_row_from_x(model, label, x))
    return {"rows": rows, "failed": failed}


def report_markdown(report: dict, response_names: list[str] | None = None) -> str:
    r = 0
    for row in report["rows"]:
        if "y_hat" in row:
            r = len(row["y_hat"])
            break
    names = response_names or [f"Y{k + 1}" for k in range(r)]
    head = ["method"]
    n_x = max((len(row.get("x", [])) for row in report["rows"]), default=0)
    head += [f"x{i + 1}" for i in range(n_x)]
    head += ["F"]
    head += [f"{nm}(x)" for nm in names]
    head += [f"Var({nm})" for nm in names]
    head += [f"Cov({a},{b})" for i, a in enumerate(names) for b in names[i + 1:]]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]

    def fmt(v):
        if v is None:
            return "--"
        text = f"{v:.3f}"
        # a value that rounds to zero prints as 0.000 whatever its sign
        return "0.000" if text == "-0.000" else text

    for row in report["rows"]:
        if "x" not in row:
            lines.append(f"| {row['method']} | " + " | ".join(["--"] * (len(head) - 1)) + " |")
            continue
        cells = [row["method"]]
        cells += [fmt(v) for v in row["x"]]
        cells += [fmt(row.get("F"))]
        cells += [fmt(v) for v in row["y_hat"]]
        cells += [fmt(v) for v in row["var"]]
        cells += [fmt(v) for v in row["cov"]]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_fit(args) -> int:
    config = load_config(args.config)
    model = fit_from_config(config, _load_data(config))
    out = args.out or "model.json"
    save_model(model, out)
    print(f"wrote {out} (N={model.n_obs}, p={model.p}, r={model.r})")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    try:
        x = as_numbers([_float_or_text(v) for v in args.x.split(",")], "--x", (model.n,))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    y_hat, q = moments(model, x)
    record = {
        "x": x.tolist(),
        "y_hat": y_hat.tolist(),
        "q": float(q),
        "cov": (q * model.sigma_hat).tolist(),
    }
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return EXIT_OK


def _float_or_text(text: str):
    """``text`` as a float, or ``text`` itself for ``as_numbers`` to name."""
    try:
        return float(text)
    except ValueError:
        return text


def _fitted(args) -> tuple[RunConfig, ExperimentData, FittedModel]:
    """The config named by ``args``, its data, and the model fitted to them."""
    config = load_config(args.config)
    data = _load_data(config)
    return config, data, fit_from_config(config, data)


def cmd_optimize(args) -> int:
    config, _, model = _fitted(args)
    spec = next((m for m in config.methods if m.name == args.method), None)
    if spec is None:
        if args.method not in prog.METHODS:
            print(f"unknown method: {args.method}", file=sys.stderr)
            return EXIT_USAGE
        print(f"method {args.method} not configured in {args.config}",
              file=sys.stderr)
        return EXIT_USAGE
    program = build_program(model, spec, config.region)
    result, row = optimize_method(model, spec, program, config.solver)
    _emit(json.dumps(row, indent=2) + "\n", args.out)
    if not result.converged:
        print(f"solver failed: max residual "
              f"{np.max(result.constraint_residuals, initial=0.0):.3g}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_report(args) -> int:
    config, data, model = _fitted(args)
    report = build_report(model, config)
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = report_markdown(report, list(data.response_names))
    _emit(text, args.out)
    return EXIT_SOLVER if report["failed"] else EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsmopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model from experiment data")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a stored model at a point")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--x", required=True, help="comma-separated coordinates")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    p_opt = sub.add_parser("optimize", help="run one configured method")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--method", required=True)
    p_opt.add_argument("--out")
    p_opt.set_defaults(func=cmd_optimize)

    p_rep = sub.add_parser("report", help="run every configured method")
    p_rep.add_argument("--config", required=True)
    p_rep.add_argument("--format", choices=["json", "md"])
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
