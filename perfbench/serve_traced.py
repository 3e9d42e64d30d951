"""``python -m repro.serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py DUMP_PATH [repro.serve arguments ...]

``SIGUSR1`` starts recording spans; ``SIGUSR2`` stops and writes them to
``DUMP_PATH`` (the server is killed, not shut down, at the end of a run, so
it cannot write them at exit).
"""

from __future__ import annotations

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.tracing import Tracer, install_engine, install_server
    from repro import serve

    dump_path, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_engine(tracer)
    install_server(tracer)

    def begin(_signum, _frame) -> None:
        tracer.recording = True

    def dump(_signum, _frame) -> None:
        tracer.recording = False
        temporary = dump_path + ".tmp"
        tracer.dump(temporary)
        os.replace(temporary, dump_path)

    signal.signal(signal.SIGUSR1, begin)
    signal.signal(signal.SIGUSR2, dump)
    return serve.main(serve_args)


if __name__ == "__main__":
    sys.exit(main())
