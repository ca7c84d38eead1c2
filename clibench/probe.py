"""Set-up probe: import the library and run a warm-up in a fresh interpreter.

    python3 probe.py SRC_DIR WARMUP_JSON

``WARMUP_JSON`` holds a list of CLI argument lists.  Prints, as one JSON
line, the seconds from just before ``import horizon_deflators`` to the end
of the warm-up commands.  Only the standard library is loaded before the
clock starts, so numpy and scipy load inside the measured import.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, warmup = sys.argv[1], sys.argv[2]
    with open(warmup) as fh:
        argvs = json.load(fh)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from horizon_deflators import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            cli.main(argv)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "module": cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
