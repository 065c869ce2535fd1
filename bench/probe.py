"""Time rsmopt's set-up in this fresh interpreter and print it as JSON.

Usage: python3 bench/probe.py CONFIG

Set-up is what every ``rsmopt`` command pays before it solves anything:
``import rsmopt.cli``, ``load_config``, reading the data and
``fit_from_config``. The caller puts the checkout's ``src`` on
PYTHONPATH. Nothing is imported before the import being timed except
what the interpreter itself loads.
"""

import json
import sys
from time import perf_counter


def main(config_path: str) -> None:
    t0 = perf_counter()
    import rsmopt.cli as cli
    t1 = perf_counter()
    config = cli.load_config(config_path)
    t2 = perf_counter()
    reader = cli.ingest_csv_wide if config.wide else cli.ingest_csv
    data = reader(config.data_path, response_order=config.responses)
    t3 = perf_counter()
    cli.fit_from_config(config, data)
    t4 = perf_counter()

    # The two halves of fit_from_config, timed again once set-up is over.
    from rsmopt.fit import fit_ols
    from rsmopt.model import build_design_matrix
    t5 = perf_counter()
    X, Y = build_design_matrix(data, config.terms)
    t6 = perf_counter()
    fit_ols(X, Y, config.terms)
    t7 = perf_counter()

    print(json.dumps({
        "setup_s": t4 - t0,
        "cli.import_s": t1 - t0,
        "cli.load_config_s": t2 - t1,
        "cli.ingest_s": t3 - t2,
        "cli.fit_s": t4 - t3,
        "model.design_matrix_s": t6 - t5,
        "fit.fit_ols_s": t7 - t6,
        "rsmopt_file": cli.__file__,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
