"""Run one benchmark workload and print its result as the last output line.

    python3 perfbench/run.py --workload analytic-large --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run and prints the per-layer metrics.
The program is imported from ``src/`` of the checkout holding this file and
nowhere else: without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist on it."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"no program to benchmark: {source}/repro is missing")
    sys.path.insert(0, source)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {source}")


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per process, which makes dict- and
        # set-heavy code faster or slower from one process to the next.
        # Run (and start the server) with one fixed salt instead.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(config["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    import_program()

    from perfbench.tracing import Tracer, install_engine

    tracer = None
    if arguments.trace:
        tracer = Tracer()
        install_engine(tracer)
    if arguments.workload == "serve-oltp":
        from perfbench import serving

        outcome = serving.run(ROOT, arguments.seed, arguments.seconds, tracer)
    else:
        from perfbench import inproc

        outcome = inproc.run(arguments.workload, ROOT, arguments.seed, arguments.seconds, tracer)
    correct, attempted, failed, values = outcome

    wanted = config["per_layer" if arguments.trace else "end_to_end"]
    missing = sorted({m["name"] for m in wanted} - set(values))
    extra = sorted(set(values) - {m["name"] for m in wanted})
    if missing or extra:
        raise SystemExit(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    if tracer is not None:
        traces = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.dump(os.path.join(traces, f"{arguments.workload}-seed{arguments.seed}.json"))

    from perfbench.common import emit

    emit(correct, attempted, failed,
         {m["name"]: (values[m["name"]], m["unit"]) for m in wanted})
    return 0


if __name__ == "__main__":
    sys.exit(main())
