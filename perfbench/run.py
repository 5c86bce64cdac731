"""Benchmark of the serving simulator and the AARC search stack.

Run from the repository root::

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs a fixed number of iterations twice, untraced and then with
every layer boundary wrapped, and reports per-layer self time and counts.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any check
failed.  See ``perfbench/README.md``.
"""

import os
import time

# One thread: BLAS pools left to their defaults keep worker threads spinning
# after every call, which on a two-vCPU host measures the scheduler and slows
# whatever runs next.  Set before anything imports NumPy; probes inherit it.
for _pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

import calibrate  # noqa: E402  (the reference loop; standard library only)

# Set-up is timed from here, bracketed by reference loops before and after.
_LOOP_BEFORE_S = calibrate.settled_loop_seconds()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Tuple  # noqa: E402

# The sibling modules import ``repro`` only inside functions, so they load
# even where ``src/`` is missing and ``main`` can refuse cleanly.
import checks  # noqa: E402
import layers  # noqa: E402
import provenance  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups measured in addition to the run's own.
SETUP_PROBES = 4

#: Timed iterations whose simulated outputs the digest covers; every run
#: makes at least this many, so digests of one seed compare across commits.
DIGEST_ITERATIONS = 2

#: A run whose workload still lacks samples stops at this multiple of
#: ``--seconds`` anyway, so a failing workload cannot loop forever.
OVERRUN_LIMIT = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set the workload up and print the set-up time (used internally)",
    )
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Set-up of one fresh interpreter: imports plus workload construction.

    Returns its host seconds and the mean reference loop its process timed
    right before and right after it.
    """
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["loop_s"]


def _freeze_setup() -> None:
    """Move everything set-up allocated out of the collector's reach.

    The garbage collector stays on while operations run, but its full
    collections then scan only what the operations themselves allocated, not
    the imported modules and the workload built at set-up.
    """
    gc.collect()
    gc.freeze()


def _setups(own_setup_s: float, own_loop_s: float, workload: str, seed: int):
    """This run's own set-up and ``SETUP_PROBES`` fresh ones: ``(host_s, loop_s)`` each.

    Each set-up is paired with the reference loops its own process timed
    right before and after it, the nearest measure of the host's speed.
    """
    return [(own_setup_s, own_loop_s)] + [
        _probe_setup(workload, seed) for _ in range(SETUP_PROBES)
    ]


def _measure(bench, seconds: float, tally):
    """Warm up, then run whole iterations until ``seconds`` have passed."""
    bench.iterate(workloads.WARMUP, layers.Stopwatch(), tally)
    clock = layers.Stopwatch()
    iterations = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(iterations) >= DIGEST_ITERATIONS and (
            elapsed >= OVERRUN_LIMIT * seconds
            or (elapsed >= seconds and bench.enough(iterations))
        ):
            tally.reference.finish()
            return iterations
        iterations.append(bench.iterate(len(iterations), clock, tally))


def _traced(bench, tally):
    """The same iterations untraced, then traced: ``(iterations, tracer, untraced_s)``.

    A traced run does a fixed amount of work (``TRACE_ITERATIONS``) rather
    than running for ``--seconds``, so its counts repeat exactly for a seed.
    """
    indices = range(bench.TRACE_ITERATIONS)
    bench.iterate(workloads.WARMUP, layers.Stopwatch(), tally)
    stopwatch = layers.Stopwatch()
    for index in indices:
        bench.iterate(index, stopwatch, tally)
    tracer = layers.Tracer()
    with tracer.installed():
        iterations = [bench.iterate(index, tracer, tally) for index in indices]
    return iterations, tracer, stopwatch.op_wall_s


def _phase_samples(iterations, phase: str):
    """``[work, host seconds, reference seconds]`` of one phase per iteration."""
    samples = []
    for iteration in iterations:
        done = getattr(iteration, phase)
        samples.append([done[0], done[1].host_s, done[1].reference_s()] if done else None)
    return samples


def _declared_units(kind: str, metrics) -> dict:
    """Units of the metrics ``BENCHMARK.json`` declares under ``kind``.

    The run must produce exactly the declared metrics, no more and no fewer.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json {kind}"
        )
    return units


def _print_layers(tracer, untraced_s: float, metrics, units) -> None:
    wall = tracer.op_wall_s
    print(f"traced {wall:.3f} s in timed operations (untraced {untraced_s:.3f} s)")
    print(f"{'layer':<20} {'self_s':>10} {'share':>7}")
    for layer, seconds in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        if seconds:
            print(f"{layer:<20} {seconds:>10.4f} {seconds / wall:>7.1%}")
    print(f"{'(unattributed)':<20} {tracer.unattributed_s:>10.4f} "
          f"{tracer.unattributed_s / wall:>7.1%}")
    print(f"{'boundary or counter':<40} {'calls':>10} {'inclusive_s':>12}")
    for label in sorted(tracer.counts):
        inclusive = tracer.inclusive_s.get(label)
        shown = f"{inclusive:>12.4f}" if inclusive is not None else ""
        print(f"{label:<40} {tracer.counts[label]:>10} {shown}")
    for name, value in metrics.items():
        print(f"{name:>30} = {value:.6g} {units[name]}")


def _print_record(bench, args, iterations, tally, extra) -> None:
    record = {
        "workload": bench.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(iterations),
        "params": bench.params(iterations),
        "provenance": provenance.collect(ROOT),
        "digest": checks.digest([i.digest for i in iterations[:DIGEST_ITERATIONS]]),
        "digest_iterations": min(DIGEST_ITERATIONS, len(iterations)),
        **extra,
    }
    print("record " + json.dumps(record, sort_keys=True, default=repr))
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    verdict = "passed" if not tally.failed else "FAILED"
    print(f"checks {verdict}: {tally.attempted} operations attempted, {tally.failed} failed")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            f"error: {ROOT} lacks src/repro or BENCHMARK.json; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    bench = workloads.WORKLOADS[args.workload](args.seed)
    own_setup_s = time.perf_counter() - _STARTED
    own_loop_s = (_LOOP_BEFORE_S + calibrate.settled_loop_seconds()) / 2
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s, "loop_s": own_loop_s}))
        return 0

    _freeze_setup()
    tally = workloads.Tally()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        iterations, tracer, untraced_s = _traced(bench, tally)
        metrics = tracer.metrics(untraced_s)
        units = _declared_units("per_layer", metrics)
        _print_layers(tracer, untraced_s, metrics, units)
        _print_record(bench, args, iterations, tally, {
            "engine_paths": dict(tracer.engine_paths),
            "per_layer": metrics,
        })
    else:
        setup = _setups(own_setup_s, own_loop_s, args.workload, args.seed)
        iterations = _measure(bench, args.seconds, tally)
        metrics = {
            "setup_s": statistics.median(calibrate.to_reference(*pair) for pair in setup),
            "primary_per_s": workloads.reference_rate(iterations, "primary"),
            "secondary_per_s": workloads.reference_rate(iterations, "secondary"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = _declared_units("end_to_end", metrics)
        named = bench.named(iterations)
        for name, value, unit in named:
            print(f"{name:>22} = {value:.6g} {unit}")
        print(f"{'setup_s':>22} = {metrics['setup_s']:.6g} s, median of {len(setup)} set-ups")
        print(f"{'peak_rss_mb':>22} = {metrics['peak_rss_mb']:.6g} MB")
        _print_record(bench, args, iterations, tally, {
            "named_metrics": {name: [value, unit] for name, value, unit in named},
            "setup_samples_s": [host_s for host_s, _ in setup],
            "setup_loops_s": [loop_s for _, loop_s in setup],
            "primary_samples": _phase_samples(iterations, "primary"),
            "secondary_samples": _phase_samples(iterations, "secondary"),
            "reference_loops_s": tally.reference.loops_s,
            "gated_metrics": metrics,
        })
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
