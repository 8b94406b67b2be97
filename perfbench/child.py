"""Fresh-interpreter helpers of the benchmark.

``child.py setup WORKLOAD SEED`` does a workload's set-up (imports and
input generation), prints ``ready`` and exits; the parent times it from
spawn to that line.

``child.py cli ARGS...`` runs ``lattice_qre.cli`` with ARGS under the
tracer and writes the trace record as the last line of stderr, prefixed
with ``TRACE_MARK``; its stdout is the command's own output.

The parent puts the checkout's ``src`` on PYTHONPATH for both.
"""

from __future__ import annotations

import json
import sys

TRACE_MARK = "perfbench-trace "


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        import workloads

        workloads.make_inputs(rest[0], int(rest[1]))
        print("ready", flush=True)
        return 0
    if mode == "cli":
        import tracing
        from lattice_qre import cli

        with tracing.Tracer() as tracer:
            tracing.install(tracer)
            code = cli.main(rest)
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(tracer.as_record()), file=sys.stderr)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
