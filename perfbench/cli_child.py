"""Traced stand-in for ``python -m degeq.cli``, used by the traced run of the
cli-compute workload:

    python3 perfbench/cli_child.py TRACE_OUT compute --input FILE --k K --format json

It imports the CLI under a span, installs the same wrappers as the parent
process, runs the command, writes its spans as JSON to TRACE_OUT and exits
with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Recorder


def main() -> None:
    trace_out, args = Path(sys.argv[1]), sys.argv[2:]
    recorder = Recorder()
    code: int | str | None = 0
    with recorder.span("cli.import"):
        import degeq.cli
    recorder.install()
    try:
        with recorder.span("cli.main"):
            degeq.cli.main(args=args, prog_name="degeq")
    except SystemExit as exc:
        code = exc.code
    finally:
        trace_out.write_text(json.dumps(recorder.export()), encoding="utf-8")
    sys.exit(code)


if __name__ == "__main__":
    main()
