"""Start the experiment service with per-layer tracing installed.

    python perfbench/tracedserve.py OUT_DIR EXPERIMENT... -- serve ARGS...

Installs :mod:`tracer` (see :func:`tracer.install_in_service`), then
runs the program's own ``runner serve``.  Pool workers write their layer
stats to ``OUT_DIR/layers-<pid>.json``; the daemon writes its own (the
warm read path) to ``OUT_DIR/layers-daemon.json`` when it stops.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    sep = argv.index("--")
    out_dir, experiments, serve_argv = argv[0], argv[1:sep], argv[sep + 1:]

    import repro.service.server  # noqa: F401 — wrapped below
    from repro.experiments.runner import main as runner_main

    import tracer  # perfbench/ is sys.path[0]

    clock = tracer.install_in_service(experiments, out_dir)
    try:
        return runner_main(serve_argv)
    finally:
        path = os.path.join(out_dir, "layers-daemon.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(clock.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
