#!/usr/bin/env python3
"""storybridge benchmark: one command, three workloads, each in its own process.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each
    python3 perfbench/run.py --self-check                 # the oracles on hand-made cases

Run it from the repository root; it imports the program from ``src/``. The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the per-layer
metrics with ``--trace 1``). See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"  # fixed before numpy loads; one thread does not lean on the shared second core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("desk-train", "published-generate", "published-distill-enrich")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="storybridge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check the oracles on hand-made cases")
    parser.add_argument("--build-cache", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check or args.build_cache):
        parser.error("give --workload, --self-check or --build-cache")
    return args


def run_all(args) -> int:
    """Each workload in its own process; prints their lines and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "storybridge", "__init__.py")):
        print(f"program source not found: {SRC}/storybridge (run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    import worlds  # imports numpy, after the thread count is fixed

    if args.build_cache:
        worlds.build_cache(args.build_cache)
        return 0
    if args.self_check:
        import selfcheck

        return selfcheck.main()

    cache, build_s = worlds.ensure_cache()
    import storybridge  # noqa: F401  (program import counts as set-up)

    from bench import Run, WORK
    from tracer import Tracer

    import_s = time.perf_counter() - PROCESS_START - build_s
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if build_s:
        run.note(f"built the checkpoint cache in {build_s:.1f}s (not counted in setup_s)")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        if args.workload == "desk-train":
            import wl_desk

            rounds = wl_desk.execute(run, tracer, import_s)
        elif args.workload == "published-generate":
            import wl_generate

            rounds = wl_generate.execute(run, tracer, import_s, cache)
        else:
            import wl_enrich

            rounds = wl_enrich.execute(run, tracer, import_s, cache)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(os.path.join(WORK, "work", f"{args.workload}-{os.getpid()}"), ignore_errors=True)
    if tracer is not None:
        end_to_end = dict(run.metrics)
        run.metrics = tracer.values(rounds)
        run.note("traced end-to-end figures (for the tracing overhead): "
                 + " ".join(f"{k}={v!r}" for k, (v, _u) in end_to_end.items()))
        spans = os.path.join(WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans)
        run.note(f"{len(tracer.spans)} spans written to {os.path.relpath(spans, os.path.dirname(HERE))}")
    run.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
