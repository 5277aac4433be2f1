"""Run one `sphereineq` command with span probes installed, then dump the spans.

    python3 bench/cli_boot.py SPANS_JSON COMMAND [ARGS...]

The traced cli workload starts this in place of the console script, so the
command runs in a fresh process exactly as `sphereineq COMMAND ARGS` would.
"""

import json
import sys
from pathlib import Path

import probes


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import sphereineq.cli

    tracer = probes.Tracer()
    probes.install(tracer)
    try:
        return sphereineq.cli.main(argv)
    finally:
        spans_path.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
