"""Run one qballot CLI command with its layers traced.

    python3 perfbench/traceboot.py SPANS_FILE OP_ID -- ARGV...

Imports `qballot.cli`, wraps the layers listed in `layers.LAYERS`, calls
`qballot.cli.main(ARGV)` and exits with its status.  Standard output is
exactly the command's own; the spans go to SPANS_FILE when the process ends.
"""

from __future__ import annotations

import sys

import layers


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traceboot.py SPANS_FILE OP_ID -- ARGV...", file=sys.stderr)
        return 2
    spans_path, op_id, cli_argv = argv[0], int(argv[1]), argv[3:]
    import qballot.cli

    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        return qballot.cli.main(cli_argv)
    finally:
        table = sys.modules["qballot.ballot"].TABLE
        tracer.dump(spans_path, op_id, {"ballot.table_entries": layers.table_size(table)})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
