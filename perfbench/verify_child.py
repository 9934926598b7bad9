"""Traced ``repro`` process: ``python3 verify_child.py LEDGER_OUT -- ARGS...``.

Runs ``repro.cli.main(ARGS)`` exactly as ``python -m repro ARGS`` would,
with the layer ledger installed from outside, and writes the ledger as
JSON to ``LEDGER_OUT`` before exiting with the command's exit code.
Wall-clock stamps (``time.time``) at the first line and after ``main``
let the parent attribute interpreter start-up and teardown.
"""

import time

FIRST_LINE = time.time()

import json  # noqa: E402
import sys  # noqa: E402

from ledger import Ledger, install  # noqa: E402


def main() -> int:
    out_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: verify_child.py LEDGER_OUT -- ARGS...")
    ledger = Ledger()
    finder = install(ledger)
    with ledger.span("startup.import"):
        import repro.cli
    finder.lazy = True
    try:
        code = repro.cli.main(argv)
    finally:
        sys.stdout.flush()
    arena = sys.modules.get("repro.smt.arena")
    kernel = arena.kernel_stats() if arena is not None else {}
    payload = ledger.snapshot()
    payload.update(first_line=FIRST_LINE, main_done=time.time(), kernel=kernel)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
