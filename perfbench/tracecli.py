"""Run one ``lawson`` CLI command with the layer wrappers installed.

    python perfbench/tracecli.py SPANS_JSON OP_ID <lawson arguments...>

Behaves like ``python -m lawson.cli <lawson arguments...>`` (same stdout and
exit code) and writes the command's spans to SPANS_JSON when it ends.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import lawson.cli

    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        return lawson.cli.main(argv)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
