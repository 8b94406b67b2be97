"""Inputs, operations and output checks of the four benchmark workloads.

Each workload has a fixed *core set* of ops, a pure function of the seed.
An untraced run executes the core set once and then cycles through it
again until its time is up; a traced run executes the core set exactly
once, so its counters repeat.  Ops call the package through module
attributes (``trotter_cost.optimize_trotter(...)``), which is where the
tracer installs its wrappers.

The draws are stratified: every round of a seeded workload covers each
model and strategy once and spreads L and the error target evenly over
their ranges, with the seed deciding the pairing and a jitter inside each
stratum.  Per-run figures then differ little from seed to seed, which is
what lets run-to-run bounds stay tight.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Every workload's set-up imports the CLI module, as a user's command does;
# it pulls in the circuit lab and scipy.
from lattice_qre import cli, qubitization, trotter_cost  # noqa: E402,F401
from lattice_qre.circuitlab import gadgets, verify  # noqa: E402
from lattice_qre.model import (  # noqa: E402
    Model, ModelSpec, default_couplings, extensive_error,
)
from lattice_qre.primitives import HwpStrategy  # noqa: E402
from lattice_qre.reference_tables import (  # noqa: E402
    QUBITIZATION_TABLES, TROTTER_TABLES,
)
from lattice_qre.trotter_bounds import tau_max, trotter_steps  # noqa: E402
from lattice_qre.trotter_cost import Strategy  # noqa: E402

WORKLOADS = ("paper-tables", "precision-scan", "verify", "cold-cli")
SNAPSHOT_PATH = Path(__file__).resolve().parent / "seed_snapshot.json"

# Envelope of the acceptance suite (tests/test_acceptance.py, criteria 1
# and 4): qubitization within 2% of the published tables; Trotter never
# above them by more than the per-strategy tolerance, never 13% below.
QUBITIZATION_TOLERANCE = 0.02
TROTTER_TOLERANCE = {
    Strategy.CATALYZED: 0.05,
    Strategy.BASELINE: 0.05,
    Strategy.BATCHED_CATALYZED: 0.15,
    Strategy.BATCHED_BASELINE: 0.15,
}
TROTTER_FLOOR = -0.13
SAME_TOTAL = 1e-9       # relative: a re-evaluated total must agree this well
SNAPSHOT_MOVED = 1e-6   # relative: a table cell has moved from the snapshot

# precision-scan: the error target is extensive * 10**-e with e stratified
# over [0, DEPTH).  At 1.5 decades the deepest draw (pnictide, L = 4) needs
# r ~ 180, below the solver's scan limit of 300, so no op fails; r grows as
# dE**-1/2, so the r scans are up to 5.6x longer than on paper-tables.
PRECISION_DEPTH = 1.5
PRECISION_ROUNDS = 8
COUPLING_JITTER = 0.10
# Fixed probe whose optimum lies beyond the scan limit (FH, L = 8,
# dE = 3e-4: r ~ 360); the traced run reports it as trotter_cost.r_cap_hits.
CAP_PROBE = (Model.FERMI_HUBBARD, 8, Strategy.CATALYZED, 3e-4)

CLI_FORMATS = ("table", "csv", "json")
CLI_U_JITTER = 0.05
CLI_TIMEOUT_S = 60.0


def scan_limit() -> int | None:
    """The Trotter solver's r scan limit, if it still has one."""
    return getattr(trotter_cost, "_R_HARD_CAP", None)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One estimate: a model spec solved by one method (and strategy)."""

    spec: ModelSpec
    method: str                    # "qubitization" or "trotter"
    strategy: Strategy | None
    delta_e: float | None = None   # None: the extensive target

    @property
    def key(self) -> str:
        strategy = self.strategy.value if self.strategy else "-"
        return f"{self.spec.kind.value}/{self.method}/{strategy}/{self.spec.L}"


@dataclass(frozen=True)
class Command:
    """One cold `lattice_qre.cli` invocation and the cells it reports."""

    argv: tuple[str, ...]
    fmt: str
    cells: tuple[Cell, ...]


def table_cells() -> list[Cell]:
    """The 197 cells of published tables 1-6 (45 qubitization, 152 Trotter)."""
    cells = [
        Cell(ModelSpec(kind, L), "qubitization", None)
        for kind, table in QUBITIZATION_TABLES.items() for L in sorted(table)
    ]
    cells += [
        Cell(ModelSpec(kind, L), "trotter", strategy)
        for kind, table in TROTTER_TABLES.items() for L in sorted(table)
        for strategy in Strategy
    ]
    return cells


def _allowed_L(kind: Model) -> list[int]:
    step = 4 if kind is Model.CUPRATE else 2
    return list(range(4, 33, step))


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one per stratum of width 1/n, in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def precision_draws(seed: int) -> list[tuple[Cell, Cell]]:
    """(qubitization cell, Trotter cell) pairs sharing spec and target.

    Per model, each strategy is drawn once per round, and L and the depth
    of the error target each take one value from every stratum of their
    range over the rounds."""
    rng = random.Random(f"precision-scan/{seed}")
    per_model = []
    for kind in Model:
        n = PRECISION_ROUNDS * len(Strategy)
        allowed = _allowed_L(kind)
        base = default_couplings(kind)
        draws = []
        for i, depth, size in zip(range(n), _strata(rng, n), _strata(rng, n)):
            L = allowed[int(size * len(allowed))]
            jittered = replace(base, **{
                f.name: getattr(base, f.name)
                * (1.0 + COUPLING_JITTER * (2.0 * rng.random() - 1.0))
                for f in fields(base)
            })
            spec = ModelSpec(kind, L, jittered)
            delta_e = extensive_error(L) * 10.0 ** (-PRECISION_DEPTH * depth)
            strategy = list(Strategy)[i % len(Strategy)]
            draws.append((Cell(spec, "qubitization", None, delta_e),
                          Cell(spec, "trotter", strategy, delta_e)))
        per_model.append(draws)
    out = []
    for k in range(PRECISION_ROUNDS):
        round_ = [d for draws in per_model for d in draws[4 * k:4 * k + 4]]
        rng.shuffle(round_)
        out += round_
    return out


# cold-cli catalogue, per model: a qubitization estimate at L = 6, a
# qubitization sweep over L = 4, 6, 8, a Trotter estimate at L = 8 with the
# model's first strategy and a Trotter sweep over the small L with its second.
CLI_STRATEGIES = {
    Model.FERMI_HUBBARD: (Strategy.CATALYZED, Strategy.BATCHED_BASELINE),
    Model.CUPRATE: (Strategy.BASELINE, Strategy.BATCHED_CATALYZED),
    Model.PNICTIDE: (Strategy.BATCHED_BASELINE, Strategy.CATALYZED),
}


def cli_commands(seed: int) -> list[Command]:
    """Small `estimate` and `sweep` commands covering both methods, every
    model and every strategy in a fixed composition; the seed sets their
    order, their output formats and a jitter of the on-site u."""
    rng = random.Random(f"cold-cli/{seed}")
    formats = [CLI_FORMATS[i % len(CLI_FORMATS)] for i in range(4 * len(Model))]
    rng.shuffle(formats)
    commands = []
    for kind in Model:
        estimated, swept = CLI_STRATEGIES[kind]
        for sub, method, strategy, sizes in (
            ("estimate", "qubitization", None, [6]),
            ("sweep", "qubitization", None, [4, 6, 8]),
            ("estimate", "trotter", estimated, [8]),
            ("sweep", "trotter", swept, [L for L in _allowed_L(kind) if L <= 8]),
        ):
            u = default_couplings(kind).u * (1.0 + CLI_U_JITTER * (2.0 * rng.random() - 1.0))
            fmt = formats.pop()
            argv = [sub, "--model", kind.value, "--method", method,
                    "--u", repr(u), "--format", fmt]
            if strategy is not None:
                argv += ["--strategy", strategy.value]
            if sub == "estimate":
                argv += ["--L", str(sizes[0])]
            else:
                argv += ["--L-range", ",".join(str(L) for L in sizes)]
            cells = tuple(Cell(ModelSpec(kind, L).with_couplings(u=u), method, strategy)
                          for L in sizes)
            commands.append(Command(tuple(argv), fmt, cells))
    rng.shuffle(commands)
    return commands


def make_inputs(workload: str, seed: int) -> list:
    """The core set of ops of a workload: a pure function of the seed."""
    if workload == "paper-tables":
        cells = table_cells()
        random.Random(f"paper-tables/{seed}").shuffle(cells)
        return cells
    if workload == "precision-scan":
        return precision_draws(seed)
    if workload == "verify":
        return [tuple(check.__name__ for check in verify.ALL_CHECKS)]
    if workload == "cold-cli":
        return cli_commands(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def solve(cell: Cell):
    if cell.method == "qubitization":
        return qubitization.optimize_qubitization(cell.spec, cell.delta_e)
    return trotter_cost.optimize_trotter(cell.spec, cell.strategy, cell.delta_e)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli(command: Command, traced: bool = False) -> tuple[int, str, str]:
    """Run one cold CLI command (traced: through child.py's tracing shim);
    returns its exit code, stdout and stderr."""
    entry = [str(Path(__file__).resolve().parent / "child.py"), "cli"] if traced \
        else ["-m", "lattice_qre.cli"]
    proc = subprocess.run([sys.executable, *entry, *command.argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def cap_probe_hits() -> int:
    """1 when the solver stops the fixed deep probe at its r scan limit."""
    kind, L, strategy, delta_e = CAP_PROBE
    limit = scan_limit()
    est = trotter_cost.optimize_trotter(ModelSpec(kind, L), strategy, delta_e)
    return int(limit is not None and est.r >= limit)


def run_op(workload: str, item, traced: bool = False):
    """Execute one op and return its raw output (checked afterwards)."""
    if workload == "paper-tables":
        return solve(item)
    if workload == "precision-scan":
        return solve(item[0]), solve(item[1])
    if workload == "verify":
        return verify.run_all()
    return run_cli(item, traced)


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output holds
# ---------------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_total(total: float) -> list[str]:
    if not math.isfinite(total):
        return [f"total {total} is not finite"]
    if total < 1.0:
        return [f"total {total} is below one Toffoli"]
    return []


def check_qubitization(cell: Cell, est) -> list[str]:
    problems = check_total(est.total_toffoli)
    if est.spec != cell.spec:
        problems.append("estimate is for another spec")
    again = qubitization.estimate(cell.spec, est.x, cell.delta_e)
    if _rel(again.total_toffoli, est.total_toffoli) > SAME_TOTAL:
        problems.append(f"total {est.total_toffoli!r} but estimate() at x gives "
                        f"{again.total_toffoli!r}")
    if again.total_qubits != est.total_qubits:
        problems.append(f"qubits {est.total_qubits} but estimate() gives {again.total_qubits}")
    return problems


def check_trotter(cell: Cell, est) -> list[str]:
    problems = check_total(est.total_toffoli)
    if est.spec != cell.spec or est.strategy is not cell.strategy:
        problems.append("estimate is for another spec or strategy")
    target = extensive_error(cell.spec.L) if cell.delta_e is None else cell.delta_e
    if est.budget.delta_e != target:
        problems.append(f"budget dE {est.budget.delta_e!r} is not the target {target!r}")
    if not est.budget.tau < tau_max(est.w_bound):
        problems.append(f"tau {est.budget.tau!r} is not below tau_max")
    if est.r != trotter_steps(est.w_bound, est.budget.tau, est.budget):
        problems.append(f"r {est.r} differs from trotter_steps()")
    limit = scan_limit()
    if limit is not None and est.r >= limit:
        problems.append(f"r {est.r} sits at the solver's scan limit {limit}")
    try:
        again = trotter_cost.evaluate(cell.spec, cell.strategy, est.budget, est.w_bound)
    except ValueError as exc:
        return problems + [f"evaluate() rejects the budget: {exc}"]
    if _rel(again.total_toffoli, est.total_toffoli) > SAME_TOTAL:
        problems.append(f"total {est.total_toffoli!r} but evaluate() gives "
                        f"{again.total_toffoli!r}")
    if again.total_qubits != est.total_qubits:
        problems.append(f"qubits {est.total_qubits} but evaluate() gives {again.total_qubits}")
    return problems


def check_cell(cell: Cell, est) -> list[str]:
    if cell.method == "qubitization":
        return check_qubitization(cell, est)
    return check_trotter(cell, est)


def check_table_cell(cell: Cell, est) -> list[str]:
    """A published-table cell: consistent, exact qubits, inside the envelope."""
    problems = check_cell(cell, est)
    kind, L = cell.spec.kind, cell.spec.L
    if cell.method == "qubitization":
        ref_toffoli, ref_qubits = QUBITIZATION_TABLES[kind][L]
        low, high = -QUBITIZATION_TOLERANCE, QUBITIZATION_TOLERANCE
    else:
        ref_toffoli, ref_qubits = TROTTER_TABLES[kind][L][1][cell.strategy]
        low, high = TROTTER_FLOOR, TROTTER_TOLERANCE[cell.strategy]
    if est.total_qubits != ref_qubits:
        problems.append(f"qubits {est.total_qubits}, published {ref_qubits}")
    dev = (est.total_toffoli - ref_toffoli) / ref_toffoli
    if not low <= dev <= high:
        problems.append(f"toffoli {dev:+.2%} off the published {ref_toffoli:.3g}")
    return problems


def check_verify(results) -> list[str]:
    names = [r.name for r in results]
    problems = [] if len(names) == len(verify.ALL_CHECKS) else [f"ran {names}"]
    return problems + [f"{r.name}: deviation {r.max_deviation:.3g} > {r.threshold:.3g}"
                       for r in results if not r.passed]


def parse_cli_output(fmt: str, text: str) -> list[dict]:
    """Rows of `estimate`/`sweep` output as dicts of column -> string."""
    if fmt == "json":
        return [{k: "" if v is None else str(v) for k, v in row.items()}
                for row in json.loads(text)["rows"]]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()
    columns = list(re.finditer(r"\S+", lines[0]))   # cells are left-aligned
    ends = [c.start() for c in columns[1:]] + [None]
    return [{c.group(): line[c.start():end].strip() for c, end in zip(columns, ends)}
            for line in lines[1:] if line.strip()]


def expected_cli_row(cell: Cell, est, fmt: str) -> dict:
    """The columns a CLI row must show for an in-process estimate."""
    exact = fmt != "table"
    number = repr if exact else (lambda v: f"{v:.3g}")
    row = {
        "model": cell.spec.kind.value, "method": cell.method,
        "strategy": cell.strategy.value if cell.strategy else "",
        "L": str(cell.spec.L), "toffoli": number(est.total_toffoli),
        "qubits": str(est.total_qubits),
    }
    if cell.method == "trotter":
        row["r"] = str(est.r)
    return row


def check_cli(command: Command, output, references: dict) -> list[str]:
    """The parsed output of a cold command matches the in-process results."""
    code, out, err = output
    if code != 0:
        return [f"exit code {code}: {err.strip()[-200:]}"]
    try:
        rows = parse_cli_output(command.fmt, out)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable {command.fmt} output: {exc}"]
    if len(rows) != len(command.cells):
        return [f"{len(rows)} rows for {len(command.cells)} cells"]
    problems = []
    for row, cell in zip(rows, command.cells):
        est = references[cell]
        problems += check_cell(cell, est)
        for column, want in expected_cli_row(cell, est, command.fmt).items():
            if row.get(column) != want:
                problems.append(f"{cell.key} {column}: printed {row.get(column)!r}, "
                                f"in-process {want!r}")
    return problems


def reference_estimates(commands) -> dict:
    """In-process estimates for every cell the commands report."""
    refs = {}
    for command in commands:
        for cell in command.cells:
            if cell not in refs:
                refs[cell] = solve(cell)
    return refs


def cli_totals(command: Command, output) -> list[float]:
    code, out, _ = output
    if code != 0:
        return []
    return [float(row["toffoli"]) for row in parse_cli_output(command.fmt, out)]


def verify_gadget_toffolis() -> list[float]:
    """Counted Toffolis of the HWP gadgets `verify` builds and certifies
    (sizes 2-5, both strategies): the Toffoli counts the workload yields."""
    return [gadgets.build_hwp(m, 0.731, strategy).counted.toffoli
            for m in (2, 3, 4, 5) for strategy in HwpStrategy]


def check_op(workload: str, item, output, references: dict | None = None) -> list[str]:
    if workload == "paper-tables":
        return check_table_cell(item, output)
    if workload == "precision-scan":
        return check_cell(item[0], output[0]) + check_cell(item[1], output[1])
    if workload == "verify":
        return check_verify(output)
    return check_cli(item, output, references)


def op_totals(workload: str, item, output) -> list[float]:
    """Toffoli totals one op reports (for toffoli_geomean); a verify pass
    reports the counted Toffolis of the HWP gadgets it certifies."""
    if workload == "paper-tables":
        return [output.total_toffoli]
    if workload == "precision-scan":
        return [output[0].total_toffoli, output[1].total_toffoli]
    if workload == "cold-cli":
        return cli_totals(item, output)
    return verify_gadget_toffolis()


# ---------------------------------------------------------------------------
# Seed snapshot of the paper tables
# ---------------------------------------------------------------------------


def load_snapshot() -> dict:
    return json.loads(SNAPSHOT_PATH.read_text())["cells"]


def cells_moved(cells, outputs, snapshot: dict) -> int:
    """Cells whose total moved more than SNAPSHOT_MOVED relative, or whose
    qubit count changed, against the stored snapshot (seed_snapshot.json)."""
    moved = 0
    for cell, est in zip(cells, outputs):
        if isinstance(est, Exception):
            continue   # already counted as a failed op
        ref = snapshot[cell.key]
        if (_rel(est.total_toffoli, ref["toffoli"]) > SNAPSHOT_MOVED
                or est.total_qubits != ref["qubits"]):
            moved += 1
    return moved
