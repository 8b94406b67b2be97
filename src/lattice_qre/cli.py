"""Command-line front end.

Subcommands:

* ``estimate``  one resource estimate for a model / method / lattice size
* ``sweep``     estimates across a range of lattice sizes
* ``reproduce`` re-derive one of the published reference tables (1-6) and
  report relative deviations against the stored values
* ``verify``    run the statevector gadget checks, JSON report, exit 1 on
  any failure

Exit codes: 0 success, 1 verification failure, 2 usage error (overflowing
inputs, an unreadable ``--config`` and an unwritable ``--output``
included; the output path is checked before any work runs).  The rows of
``estimate``, ``sweep`` and ``reproduce`` are deterministic for a fixed
command line; the ``verify`` report is not, as it carries each check's
wall time (``seconds``).
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .model import COUPLING_NAMES, Model, ModelSpec, load_config
from .qubitization import optimize_qubitization
from .trotter_cost import Strategy, optimize_trotter

# The columns of every output format, in order.  A row is a dict holding
# the columns its method fills; a column it lacks prints empty (null in JSON).
CSV_COLUMNS = ("model", "method", "strategy", "L", "W", "r", "x", "y", "z", "tau",
               "toffoli", "qubits", "ref_toffoli", "ref_qubits", "rel_dev")


def _cells(row: dict, float_format) -> list[str]:
    return ["" if v is None else float_format(v) if isinstance(v, float) else str(v)
            for v in map(row.get, CSV_COLUMNS)]


def rows_to_csv(rows) -> str:
    import csv   # loaded only for this format
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_cells(row, repr) for row in rows)
    return buf.getvalue()


def rows_to_table(rows) -> str:
    cells = [_cells(row, "{:.3g}".format) for row in rows]
    widths = [max(len(c), *(len(line[i]) for line in cells)) if cells else len(c)
              for i, c in enumerate(CSV_COLUMNS)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(CSV_COLUMNS, widths)).rstrip()]
    for line in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    import json   # loaded only for this format
    return json.dumps({"rows": [{c: row.get(c) for c in CSV_COLUMNS} for row in rows]},
                      indent=2)


# ---------------------------------------------------------------------------
# Estimation helpers
# ---------------------------------------------------------------------------


def _build_spec(args) -> tuple[list[ModelSpec], float | None]:
    """One spec per lattice size and the error target of an ``estimate`` or
    a ``sweep``.  The sizes are the sweep's ``--L-range``, else ``--L`` or
    the config file's L; each other setting is its flag, else the config
    file's value, else the model's default.  A coupling flag or key that
    the model lacks is an error."""
    cfg = load_config(args.config) if args.config else {}
    kind = Model(args.model) if args.model else cfg.get("model")
    if kind is None:
        raise ValueError("--model is required (or a config file with one)")
    if args.command == "sweep":
        sizes = _parse_l_range(args.l_range)
    else:
        L = args.L if args.L is not None else cfg.get("L")
        if L is None:
            raise ValueError("--L is required (or a config file with one)")
        sizes = [L]
    given = {name: cfg[name] for name in COUPLING_NAMES if name in cfg}
    given.update((name, getattr(args, name)) for name in COUPLING_NAMES
                 if getattr(args, name) is not None)
    delta_e = args.delta_e if args.delta_e is not None else cfg.get("delta_E_override")
    return [ModelSpec(kind, L).with_couplings(**given) for L in sizes], delta_e


def estimate_row(spec: ModelSpec, method: str, strategy: Strategy | None,
                 delta_e: float | None, amortize: bool = False) -> dict:
    """One output row: the columns of ``CSV_COLUMNS`` that ``method`` fills."""
    row = {"model": spec.kind.value, "method": method, "L": spec.L}
    if method == "qubitization":
        est = optimize_qubitization(spec, delta_e)
        return row | {"strategy": "", "x": est.x,
                      "toffoli": est.total_toffoli, "qubits": est.total_qubits}
    est = optimize_trotter(spec, strategy, delta_e, amortize_catalyst=amortize)
    b = est.budget
    return row | {"strategy": est.strategy.value, "W": est.w_bound, "r": est.r,
                  "x": b.x, "y": b.y, "z": b.z, "tau": b.tau,
                  "toffoli": est.total_toffoli, "qubits": est.total_qubits}


def reproduce_table(number: int, strategy: Strategy | None = None,
                    amortize: bool = False) -> list[dict]:
    """The rows of published table ``number`` (every strategy of a Trotter
    table unless ``strategy`` picks one), each with its reference values
    and the relative Toffoli deviation from them.  A ``strategy`` or
    ``amortize`` that the table's method cannot take is a ``ValueError``."""
    from .reference_tables import QUBITIZATION_TABLES, TABLE_NUMBERS, TROTTER_TABLES
    kind, method = TABLE_NUMBERS[number]
    _check_trotter_flags(method, strategy, amortize)
    if method == "qubitization":
        cases = [(L, None, ref) for L, ref in sorted(QUBITIZATION_TABLES[kind].items())]
    else:
        strategies = [strategy] if strategy else list(Strategy)
        cases = [(L, strat, per_strategy[strat])
                 for L, (_, per_strategy) in sorted(TROTTER_TABLES[kind].items())
                 for strat in strategies]
    rows = []
    for L, strat, (ref_tof, ref_qb) in cases:
        row = estimate_row(ModelSpec(kind, L), method, strat, None, amortize)
        rows.append(row | {"ref_toffoli": ref_tof, "ref_qubits": ref_qb,
                           "rel_dev": (row["toffoli"] - ref_tof) / ref_tof})
    return rows


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--model", choices=[m.value for m in Model])
    parser.add_argument("--method", choices=["qubitization", "trotter"],
                        default="qubitization")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--delta-e", dest="delta_e", type=float,
                        help="override the extensive error target")
    for name in COUPLING_NAMES:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    _add_rows_options(parser)


def _add_rows_options(parser):
    """The options of every subcommand that prints result rows."""
    parser.add_argument("--strategy", choices=[s.value for s in Strategy])
    parser.add_argument("--amortize-catalyst", action="store_true",
                        help="charge catalyst synthesis once instead of per query")
    parser.add_argument("--format", choices=["csv", "json", "table"], default="table")
    parser.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-qre",
        description="Fault-tolerant resource estimates for Fermi-Hubbard-type models",
        allow_abbrev=False,   # a prefix such as --L must not stand for --L-range
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="single resource estimate", allow_abbrev=False)
    _add_common(p_est)
    p_est.add_argument("--L", type=int)

    p_sweep = sub.add_parser("sweep", help="estimates over a range of L", allow_abbrev=False)
    _add_common(p_sweep)
    p_sweep.add_argument("--L-range", dest="l_range", required=True,
                         help="START:STOP[:STEP] (inclusive) or comma list")

    p_rep = sub.add_parser("reproduce", help="re-derive a published reference table",
                           allow_abbrev=False)
    p_rep.add_argument("table", choices=[f"supp-table-{i}" for i in range(1, 7)])
    _add_rows_options(p_rep)

    p_ver = sub.add_parser("verify", help="run the statevector gadget checks",
                           allow_abbrev=False)
    p_ver.add_argument("--output", help="write the JSON report to this path")
    return parser


def _parse_l_range(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise ValueError(f"bad L range {text!r}") from None
    if ":" in text:
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 2
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ValueError(f"bad L range {text!r}")
        if step == 0:
            raise ValueError(f"L range step must not be zero: {text!r}")
        sizes = list(range(start, stop + (1 if step > 0 else -1), step))   # STOP inclusive
        if not sizes:
            raise ValueError(f"empty L range {text!r}")
        return sizes
    return parts


def _check_trotter_flags(method: str, strategy: Strategy | None, amortize: bool) -> None:
    """``--strategy`` and ``--amortize-catalyst`` only shape Trotter runs,
    and the latter only catalyzed ones."""
    if method != "trotter":
        for flag, value in (("--strategy", strategy), ("--amortize-catalyst", amortize)):
            if value:
                raise ValueError(f"{flag} applies only to Trotter estimates "
                                 f"(--method trotter, supp-table-4..6)")
    if amortize and strategy and not strategy.catalyzed:
        raise ValueError(f"--amortize-catalyst applies only to catalyzed strategies, "
                         f"not --strategy {strategy.value}")


def _check_output(path: str | None) -> None:
    """Fail before any work if ``--output`` cannot be written: its directory
    must exist and be writable.  The file itself is not opened yet."""
    if not path:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ValueError(f"cannot write --output {path}: not a file in a writable directory")


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format(rows, fmt: str) -> str:
    if fmt == "csv":
        return rows_to_csv(rows)
    if fmt == "json":
        return rows_to_json(rows)
    return rows_to_table(rows)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output(args.output)
        if args.command == "verify":
            from .circuitlab import verify as circuit_verify   # only this command needs the lab
            results = circuit_verify.run_all()
            _write(circuit_verify.report_json(results) + "\n", args.output)
            return 0 if all(r.passed for r in results) else 1
        strategy = Strategy(args.strategy) if args.strategy else None
        if args.command == "reproduce":
            rows = reproduce_table(int(args.table.rsplit("-", 1)[1]), strategy,
                                   args.amortize_catalyst)
        else:
            _check_trotter_flags(args.method, strategy, args.amortize_catalyst)
            specs, delta_e = _build_spec(args)
            rows = [estimate_row(spec, args.method, strategy or Strategy.CATALYZED, delta_e,
                                 args.amortize_catalyst) for spec in specs]
        _write(_format(rows, args.format), args.output)
        if args.command == "reproduce":
            worst = max(abs(r["rel_dev"]) for r in rows)
            print(f"max relative toffoli deviation: {worst:.3%}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
