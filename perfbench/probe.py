"""One set-up sample: import diamondqi and warm a workload up, in a fresh
interpreter.  Prints the seconds taken.  run.py starts it with PYTHONPATH
set to the checkout's src/:

    python3 perfbench/probe.py WORKLOAD
"""

import sys
import time

start = time.perf_counter()
import diamondqi  # noqa: E402,F401

import workloads  # noqa: E402

name = sys.argv[1]
if name == workloads.CliSession.name:
    import contextlib
    import io

    from diamondqi import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(workloads.CliSession.WARM_UP_ARGS)
else:
    workloads.WORKLOADS[name](0, workloads.Program()).warm_up()
print(time.perf_counter() - start)
