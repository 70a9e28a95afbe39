"""Run one ``repro`` CLI command with the benchmark's tracer installed in-process.

Usage: ``python3 perfbench/traced_cli.py SPANS_JSON <repro arguments...>``

The command runs exactly as ``python3 -m repro <arguments...>`` would, inside
one request span; at exit the spans and boundary counts are written to
``SPANS_JSON`` for the parent benchmark process to merge.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    from repro.cli import main as cli_main

    try:
        code = tracer.request(0, lambda: cli_main(argv))
    finally:
        with open(spans_path, "w") as stream:
            json.dump(tracer.export(), stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
