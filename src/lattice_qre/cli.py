"""Command-line front end.

Subcommands:

* ``estimate``  one resource estimate for a model / method / lattice size
* ``sweep``     estimates across a range of lattice sizes
* ``reproduce`` re-derive one of the published reference tables (1-6) and
  report relative deviations against the stored values
* ``verify``    run the statevector gadget checks, JSON report, exit 1 on
  any failure

Exit codes: 0 success, 1 verification failure, 2 usage error (overflowing
inputs included).  Output is deterministic for a fixed command line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields, replace

from .model import Model, ModelSpec, default_couplings, load_config
from .qubitization import optimize_qubitization
from .reference_tables import QUBITIZATION_TABLES, TABLE_NUMBERS, TROTTER_TABLES
from .trotter_cost import Strategy, optimize_trotter

CSV_COLUMNS = [
    "model", "method", "strategy", "L", "W", "r", "x", "y", "z", "tau",
    "toffoli", "qubits", "ref_toffoli", "ref_qubits", "rel_dev",
]


@dataclass
class ResultRow:
    model: str
    method: str
    strategy: str
    L: int
    W: float | None
    r: int | None
    x: float
    y: float | None
    z: float | None
    tau: float | None
    toffoli: float
    qubits: int
    ref_toffoli: float | None = None
    ref_qubits: int | None = None
    rel_dev: float | None = None

    def as_record(self) -> dict:
        return {c: getattr(self, c) for c in CSV_COLUMNS}


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt_cell(v) for k, v in row.as_record().items()})
    return buf.getvalue()


def _sig3(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def rows_to_table(rows) -> str:
    cells = [[_sig3(row.as_record()[c]) for c in CSV_COLUMNS] for row in rows]
    widths = [max(len(c), *(len(line[i]) for line in cells)) if cells else len(c)
              for i, c in enumerate(CSV_COLUMNS)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(CSV_COLUMNS, widths)).rstrip()]
    for line in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps({"rows": [row.as_record() for row in rows]}, indent=2)


# ---------------------------------------------------------------------------
# Estimation helpers
# ---------------------------------------------------------------------------


def _build_spec(args) -> tuple[ModelSpec, float | None]:
    cfg = load_config(args.config) if args.config else {}
    kind = Model(args.model) if args.model else cfg.get("model")
    if kind is None:
        raise ValueError("--model is required (or a config file with one)")
    L = args.L if args.L is not None else cfg.get("L")
    if L is None:
        raise ValueError("--L is required (or a config file with one)")
    couplings = default_couplings(kind)
    overrides = {
        f.name: cfg[f.name] for f in fields(couplings) if f.name in cfg
    }
    for f in fields(couplings):
        flag = getattr(args, f.name, None)
        if flag is not None:
            overrides[f.name] = flag
    delta_e = args.delta_e if args.delta_e is not None else cfg.get("delta_E_override")
    spec = ModelSpec(kind, int(L), replace(couplings, **overrides))
    return spec, delta_e


def estimate_row(spec: ModelSpec, method: str, strategy: Strategy | None,
                 delta_e: float | None, amortize: bool = False) -> ResultRow:
    if method == "qubitization":
        est = optimize_qubitization(spec, delta_e)
        return ResultRow(
            model=spec.kind.value, method=method, strategy="", L=spec.L,
            W=None, r=None, x=est.x, y=None, z=None, tau=None,
            toffoli=est.total_toffoli, qubits=est.total_qubits,
        )
    est = optimize_trotter(spec, strategy, delta_e, amortize_catalyst=amortize)
    b = est.budget
    return ResultRow(
        model=spec.kind.value, method="trotter", strategy=est.strategy.value,
        L=spec.L, W=est.w_bound, r=est.r, x=b.x, y=b.y, z=b.z, tau=b.tau,
        toffoli=est.total_toffoli, qubits=est.total_qubits,
    )


def reproduce_table(number: int, strategy: Strategy | None = None,
                    amortize: bool = False) -> list[ResultRow]:
    kind, method = TABLE_NUMBERS[number]
    rows = []
    if method == "qubitization":
        for L, (ref_tof, ref_qb) in sorted(QUBITIZATION_TABLES[kind].items()):
            row = estimate_row(ModelSpec(kind, L), "qubitization", None, None)
            row.ref_toffoli, row.ref_qubits = ref_tof, ref_qb
            row.rel_dev = (row.toffoli - ref_tof) / ref_tof
            rows.append(row)
        return rows
    strategies = [strategy] if strategy else list(Strategy)
    for L, (w_ref, per_strategy) in sorted(TROTTER_TABLES[kind].items()):
        for strat in strategies:
            ref_tof, ref_qb = per_strategy[strat]
            row = estimate_row(ModelSpec(kind, L), "trotter", strat, None, amortize)
            row.ref_toffoli, row.ref_qubits = ref_tof, ref_qb
            row.rel_dev = (row.toffoli - ref_tof) / ref_tof
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--model", choices=[m.value for m in Model])
    parser.add_argument("--method", choices=["qubitization", "trotter"],
                        default="qubitization")
    parser.add_argument("--strategy", choices=[s.value for s in Strategy])
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--delta-e", dest="delta_e", type=float,
                        help="override the extensive error target")
    for name in ("t", "t_prime", "t_dprime", "t1", "t2", "t3", "t4", "u", "v"):
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    parser.add_argument("--amortize-catalyst", action="store_true",
                        help="charge catalyst synthesis once instead of per query")
    _add_output(parser)


def _add_output(parser):
    parser.add_argument("--format", choices=["csv", "json", "table"], default="table")
    parser.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-qre",
        description="Fault-tolerant resource estimates for Fermi-Hubbard-type models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="single resource estimate")
    _add_common(p_est)
    p_est.add_argument("--L", type=int)

    p_sweep = sub.add_parser("sweep", help="estimates over a range of L")
    _add_common(p_sweep)
    p_sweep.add_argument("--L-range", dest="l_range", required=True,
                         help="START:STOP[:STEP] (inclusive) or comma list")
    p_sweep.set_defaults(L=None)

    p_rep = sub.add_parser("reproduce", help="re-derive a published reference table")
    p_rep.add_argument("table", choices=[f"supp-table-{i}" for i in range(1, 7)])
    p_rep.add_argument("--strategy", choices=[s.value for s in Strategy])
    p_rep.add_argument("--amortize-catalyst", action="store_true")
    _add_output(p_rep)

    p_ver = sub.add_parser("verify", help="run the statevector gadget checks")
    p_ver.add_argument("--output", help="write the JSON report to this path")
    return parser


def _parse_l_range(text: str) -> list[int]:
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 2
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ValueError(f"bad L range {text!r}")
        sizes = list(range(start, stop + 1, step))
        if not sizes:
            raise ValueError(f"empty L range {text!r}")
        return sizes
    return [int(p) for p in text.split(",")]


def _reject_trotter_flags(args) -> None:
    """``--strategy`` and ``--amortize-catalyst`` only shape Trotter runs."""
    for flag, value in (("--strategy", args.strategy),
                        ("--amortize-catalyst", args.amortize_catalyst)):
        if value:
            raise ValueError(f"{flag} applies only to Trotter estimates "
                             f"(--method trotter, supp-table-4..6)")


def _emit(rows, args) -> None:
    if args.format == "csv":
        text = rows_to_csv(rows)
    elif args.format == "json":
        text = rows_to_json(rows)
    else:
        text = rows_to_table(rows)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("estimate", "sweep") and args.method == "qubitization":
            _reject_trotter_flags(args)
        if args.command == "estimate":
            spec, delta_e = _build_spec(args)
            strategy = Strategy(args.strategy) if args.strategy else Strategy.CATALYZED
            row = estimate_row(spec, args.method, strategy, delta_e,
                               args.amortize_catalyst)
            _emit([row], args)
            return 0
        if args.command == "sweep":
            rows = []
            for L in _parse_l_range(args.l_range):
                args.L = L
                spec, delta_e = _build_spec(args)
                strategy = Strategy(args.strategy) if args.strategy else Strategy.CATALYZED
                rows.append(estimate_row(spec, args.method, strategy, delta_e,
                                         args.amortize_catalyst))
            _emit(rows, args)
            return 0
        if args.command == "reproduce":
            number = int(args.table.rsplit("-", 1)[1])
            if TABLE_NUMBERS[number][1] == "qubitization":
                _reject_trotter_flags(args)
            strategy = Strategy(args.strategy) if args.strategy else None
            rows = reproduce_table(number, strategy, args.amortize_catalyst)
            _emit(rows, args)
            worst = max((abs(r.rel_dev) for r in rows if r.rel_dev is not None), default=0.0)
            print(f"max relative toffoli deviation: {worst:.3%}", file=sys.stderr)
            return 0
        if args.command == "verify":
            from .circuitlab import verify as circuit_verify   # only this command needs the lab
            results = circuit_verify.run_all()
            report = circuit_verify.report_json(results)
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(report)
            else:
                print(report)
            return 0 if all(r.passed for r in results) else 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
