"""Run the ``repmab`` CLI in-process with the layer tracer installed.

Usage: python3 perfbench/traced_cli.py DUMP_JSON CLI_ARGS...

Writes the tracer's spans, totals and counters to DUMP_JSON and exits
with the CLI's exit code.  Used by the traced run of ``cli-export``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    dump_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.phase = "op"
    tracer.install()
    from repmab import cli

    code = cli.main(argv)
    tracer.uninstall()
    dump_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
