"""``python -m diamondqi.cli`` with spans: the traced form of a CLI child.

    python3 perfbench/cli_child.py SPAN_FILE ARGS...

Times the import of diamondqi.cli, wraps the library's modules, runs
``cli.main(ARGS)`` inside a ``cli`` span and writes the spans to SPAN_FILE.
Stdout and the exit code are those of the plain command.
"""

import sys
import time

start = time.perf_counter()
from diamondqi import cli  # noqa: E402

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.open()
try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.close("cli")
    tracer.uninstall()
    tracer.dump(sys.argv[1], import_s=import_s)
sys.stdout.flush()
sys.exit(code)
