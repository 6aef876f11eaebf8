"""handleforge benchmark: one command for every workload.

    python3 bench/run.py --workload word_problem|unbraid_charts|cli_batch \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``, never from an installed copy.  The run sets up its inputs from
the seed (five times, keeping the median), then repeats whole rounds of
the workload for ``--seconds``, as many as end within it but at least one,
and then checks every output.  Times are given at reference speed
(meter.py): each timed call is set against a fixed loop run next to it,
so that most of the host's changing speed cancels.  Per-round metrics are
medians over the rounds.
Human-readable lines come first; the last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the public functions of every layer are wrapped (see tracer.py) and the
metrics are the per-layer ones.  Spans and results go to ``.bench_out/``.
See bench/README.md for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
HASH_SEED = "0"


# one fresh interpreter importing every layer, as the CLI does on start
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import handleforge, handleforge.cli"


def _start_and_import() -> None:
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")], check=True)


def _import_program() -> str:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import handleforge
    from handleforge import kernels

    where = os.path.realpath(os.path.dirname(handleforge.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"handleforge was imported from {where}, not from {src}")
    return kernels.BACKEND


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the engine's cost depends on set and dict order, so every run
        # hashes alike; exec keeps the process, so there is one to wait for
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

    backend = _import_program()
    sys.path.insert(0, BENCH_DIR)
    import checks
    from meter import Meter
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_DIR, tag + ".work")
    work = WORKLOADS[args.workload](args.seed, work_dir)
    meter = Meter()

    # set-up: an interpreter started and the program imported, then the
    # workload's inputs made; each timed several times, the medians added
    import_ref_s = statistics.median(meter.time(_start_and_import)[2] for _ in range(SETUP_REPEATS))
    setups = [meter.time(work.setup)[2] for _ in range(SETUP_REPEATS)]
    setup_s = import_ref_s + statistics.median(setups)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    meter.fresh()
    rounds = []
    start = time.perf_counter()
    lengths = []
    round_samples = []  # per round: (call, loop before, loop after) of each timed call
    try:
        # a round starts only if one as long as the median round so far
        # still ends within --seconds; the first always runs
        while not lengths or time.perf_counter() - start + statistics.median(lengths) <= args.seconds:
            began = time.perf_counter()
            first = len(meter.samples)
            rounds.append(work.round(meter))
            round_samples.append(meter.samples[first:])
            lengths.append(time.perf_counter() - began)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problem = None
    checked = time.perf_counter()
    try:
        work.check()
    except (checks.CheckFailed, KeyError) as exc:
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct = problem is None
    check_s = time.perf_counter() - checked

    def median_of(value) -> float:
        return statistics.median(value(r) for r in rounds)

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ref_wall_s": (median_of(lambda r: r.ref_s), "s"),
        "ref_ops_per_s": (median_of(lambda r: r.ops / r.ops_ref_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    named = {
        "import_ref_s": (import_ref_s, "s"),
        "wall_s": (median_of(lambda r: r.wall_s), "s"),
        "speed_factor": (meter.median_factor(), "ref_s/s"),
        **{name: (median_of(lambda r, n=name: r.figures[n][0]), unit)
           for name, (_, unit) in rounds[0].figures.items()},
    }

    if tracer:
        # every round makes the same calls: report them per round, and
        # seconds at the run's median reference speed
        n = len(rounds)
        factor = meter.median_factor()
        layer = {"trace.ref_wall_s": (sum(r.ref_s for r in rounds) / n, "s")}
        for name, acc in tracer.totals().items():
            for key, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"), ("states", "count")):
                layer[f"{name}.{key}"] = (acc[key] * factor / n if unit == "s" else acc[key] // n, unit)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            wanted = [m["name"] for m in json.load(fh)["per_layer"]]
        metrics = {name: layer[name] for name in wanted}
        tracer.write(os.path.join(OUT_DIR, tag + ".trace.json"))
    else:
        metrics = end_to_end

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"# workload {args.workload}, seed {args.seed}, backend {backend}, "
          f"{len(rounds)} round(s) of {rounds[0].ops} ops, checked in {check_s:.3g} s")
    for name, (value, unit) in {**end_to_end, **named}.items():
        print(f"# {name} = {value:.6g} {unit}")
    if problem:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "backend": backend, "rounds": len(rounds),
                   "round_ref_s": [r.ref_s for r in rounds], "round_wall_s": [r.wall_s for r in rounds],
                   "round_samples": round_samples,
                   "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                   "check": problem}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
