"""Per-layer tracing from outside the package.

The tracer replaces a module attribute with a timing wrapper, so it sees
exactly the calls whose caller looks the function up through that module
(``trotter_cost.minimize`` is the generic minimizer as the Trotter solver
drives it; ``qubitization.minimize`` is the same function as the
qubitization solve drives it).  Every wrapper is removed again on exit.
No source module is edited.

Spans nest: a wrapper's self time is its duration minus the time of the
wrapped calls made inside it.  Spans are aggregated in memory per name
(calls, total seconds, self seconds) plus named counters.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from collections import Counter, defaultdict

VERIFY_CHECKS = (
    "hamming_weight", "hwp_unitary", "hwp_tallies", "catalyst_invariance",
    "fswap", "two_site_fourier", "plaquette", "unitarity", "fermion_oracle",
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._open = []     # time spent in wrapped children of each open span
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def replace(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrapped(self, function, span: str, after=None):
        """``function`` timed as ``span``; ``after(counts, args, result)``
        records counters from each call."""
        clock = time.perf_counter
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - children
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def wrap(self, module, attr, span: str, after=None) -> None:
        self.replace(module, attr, self.wrapped(getattr(module, attr), span, after))

    def merge(self, record: dict) -> None:
        """Add a record written by ``as_record`` in another process."""
        for span, (calls, total, self_s) in record["spans"].items():
            self.calls[span] += calls
            self.total[span] += total
            self.self_time[span] += self_s
        self.counts.update(record["counts"])

    def as_record(self) -> dict:
        return {"spans": {s: (self.calls[s], self.total[s], self.self_time[s])
                          for s in self.calls},
                "counts": dict(self.counts)}


def _count_evaluations(key):
    def after(counts, args, result):
        counts[key] += result.evaluations
    return after


def _count_r(counts, args, result):
    counts["trotter_cost.r_sum"] += result.r


def _count_gates(counts, args, result):
    counts["circuitlab.statevector.gates_applied"] += len(args[1].gates)


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports, at its callers' lookups."""
    from lattice_qre import cli, qubitization, trotter_cost
    from lattice_qre.circuitlab import statevector, verify

    for module in (trotter_cost, cli):
        tracer.wrap(module, "optimize_trotter", "trotter_cost.solve", _count_r)
    for module in (qubitization, cli):
        tracer.wrap(module, "optimize_qubitization", "qubitization.solve")
    tracer.wrap(trotter_cost, "step_cost", "trotter_cost.step_cost")
    tracer.wrap(trotter_cost, "trotter_bound", "trotter_bounds.w")
    tracer.wrap(trotter_cost, "minimize", "optimize.minimize",
                _count_evaluations("optimize.evaluations"))
    tracer.wrap(qubitization, "minimize", "qubitization.minimize",
                _count_evaluations("qubitization.evaluations"))
    for name in ("rows_to_table", "rows_to_csv", "rows_to_json"):
        tracer.wrap(cli, name, "cli.format")
    tracer.replace(verify, "ALL_CHECKS", tuple(
        tracer.wrapped(check, "circuitlab.verify." + check.__name__.removeprefix("check_"))
        for check in verify.ALL_CHECKS))
    for name in ("build_hamming_weight", "build_hwp", "build_fswap",
                 "build_plaquette_evolution", "two_site_fourier"):
        tracer.wrap(verify, name, "circuitlab.gadgets.build")
    for module in (verify, statevector):
        tracer.wrap(module, "apply_circuit", "circuitlab.statevector.apply", _count_gates)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values (ms and counts) from the spans and counters."""
    ms = lambda table, span: 1000.0 * table.get(span, 0.0)  # noqa: E731
    solves = tracer.calls["trotter_cost.solve"]
    out = {
        "trotter_cost.solve_ms": ms(tracer.self_time, "trotter_cost.solve"),
        "trotter_cost.step_cost_calls": tracer.calls["trotter_cost.step_cost"],
        "trotter_cost.step_cost_ms": ms(tracer.total, "trotter_cost.step_cost"),
        "trotter_cost.r_sum": tracer.counts["trotter_cost.r_sum"],
        "optimize.minimize_calls": tracer.calls["optimize.minimize"],
        "optimize.evaluations": tracer.counts["optimize.evaluations"],
        "optimize.evals_per_cell": (tracer.counts["optimize.evaluations"] / solves
                                    if solves else 0.0),
        "optimize.minimize_ms": ms(tracer.self_time, "optimize.minimize"),
        "trotter_bounds.w_calls": tracer.calls["trotter_bounds.w"],
        "trotter_bounds.w_ms": ms(tracer.total, "trotter_bounds.w"),
        "qubitization.solve_ms": ms(tracer.total, "qubitization.solve"),
        "qubitization.evaluations": tracer.counts["qubitization.evaluations"],
        "cli.format_ms": ms(tracer.total, "cli.format"),
        "circuitlab.gadgets.build_ms": ms(tracer.total, "circuitlab.gadgets.build"),
        "circuitlab.statevector.apply_calls": tracer.calls["circuitlab.statevector.apply"],
        "circuitlab.statevector.gates_applied":
            tracer.counts["circuitlab.statevector.gates_applied"],
        "circuitlab.statevector.simulate_ms": ms(tracer.total, "circuitlab.statevector.apply"),
    }
    for check in VERIFY_CHECKS:
        out[f"circuitlab.verify.{check}_ms"] = ms(tracer.total, f"circuitlab.verify.{check}")
    return out


# ---------------------------------------------------------------------------
# Import layer: `python -X importtime -c "import lattice_qre.cli"`
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative ms of lattice_qre.cli, of lattice_qre.circuitlab, and of
    every outermost scipy import (one not nested under another scipy one)."""
    entries = [(len(m.group(3)), m.group(4), int(m.group(2)) / 1000.0)
               for m in map(_IMPORT_LINE.match, text.splitlines()) if m]
    out = {"import.cli_ms": 0.0, "import.circuitlab_ms": 0.0, "import.scipy_ms": 0.0}
    ancestors = []   # (depth, name), parents listed before children in reverse
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "lattice_qre.cli":
            out["import.cli_ms"] += cumulative
        elif name == "lattice_qre.circuitlab":
            out["import.circuitlab_ms"] += cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.")
                                for _, a in ancestors):
            out["import.scipy_ms"] += cumulative
        ancestors.append((depth, name))
    return out


def measure_imports(root, env, repeats: int) -> dict[str, float]:
    """Median of each import metric over ``repeats`` fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lattice_qre.cli"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import of lattice_qre.cli failed: {proc.stderr[-300:]}")
        samples.append(parse_importtime(proc.stderr))
    return {key: sorted(s[key] for s in samples)[repeats // 2] for key in samples[0]}
