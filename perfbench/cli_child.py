"""Run the ``metaplectic`` command line in a fresh interpreter.

    python3 cli_child.py <metaplectic arguments>

This is what the installed ``metaplectic`` script does (call
``metaplectic.cli:main``), plus a clock around ``import metaplectic``.  With
``PERFBENCH_TRACE=<file>`` in the environment it also records per-layer
spans and writes them, with the import time, to that file at exit.
"""

import os
import sys
import time

t0 = time.perf_counter()
import metaplectic  # noqa: E402
import_s = time.perf_counter() - t0

from metaplectic.cli import main  # noqa: E402


def _trace_to(path):
    import atexit

    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.active = True

    def dump():
        tracer.self_times["cli.import"] = [import_s]
        tracer.dump(path)
    atexit.register(dump)


if __name__ == "__main__":
    if os.environ.get("PERFBENCH_TRACE"):
        _trace_to(os.environ["PERFBENCH_TRACE"])
    main(prog_name="metaplectic")
