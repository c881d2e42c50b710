"""Runs ``hankelbound`` commands in a process of their own.

    python3 bench/cli_worker.py

Reads one JSON list of command-line arguments per line of standard input,
runs the command through ``cli.main`` with its output captured, and answers
with one JSON line: ``{"code": ..., "out": ..., "err": ...}``, or
``{"raised": <traceback>}`` if the command raised.  It ends at the end of
its input.  The benchmark runs its invalid-input commands here
(``workloads.Worker``), so that the memory they take stays out of the
measured process.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> int:
    reply = sys.stdout
    for line in sys.stdin:
        try:
            res = workloads.call_cli(json.loads(line))
            answer = {"code": res.code, "out": res.out, "err": res.err}
        except Exception:
            answer = {"raised": traceback.format_exc()}
        reply.write(json.dumps(answer) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
