"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload des_batched --seed 0 --seconds 30 --trace 0

One run:

1. builds the workload's inputs from ``--seed`` several times, timing
   each build (``setup_s`` is the median) and checking that the builds
   hash the same;
2. runs one untimed warm-up repetition whose outputs are checked by the
   oracles in ``oracles.py``;
3. with ``--trace 0``, repeats the timed call with ``repro.obs`` off for
   ``--seconds`` and reports the median throughput and the peak RSS of
   these repetitions alone (the high-water mark is reset after steps 1
   and 2); every repetition's output is checked outside the timed region;
4. with ``--trace 1``, spends half of ``--seconds`` on untraced
   repetitions (the overhead baseline) and half on traced ones, and
   reports the per-layer metrics of the median traced repetition.  Each
   traced repetition must have entered every timed layer as often as
   the program's own counters say, and its layer self times must add
   up to its traced wall within ``COVERAGE_TOL``.

Times are in reference seconds (see ``calibration.py``): wall time
rescaled by a calibration kernel run around each timed call, so that
host speed drift on a shared machine cancels.  Every metric is printed
by name and unit, followed by a JSON line with
the run's identity (host fingerprint, content hash of the inputs) and
spread, and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.  Before it prints, the run stops
and waits for every process it started (see ``stop_children``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Input builds per run — at least this many, and for at least this
#: long; ``setup_s`` is their median.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
#: Timed repetitions per run, however short ``--seconds`` is.
MIN_REPS = 3
#: Traced layer times must account for the traced wall within this share.
COVERAGE_TOL = 0.05


def host_fingerprint() -> Dict[str, object]:
    """CPU model, core count and interpreter / NumPy / SciPy versions."""
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor() or platform.machine(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def reset_peak_rss() -> bool:
    """Restart this process's resident-set high-water mark at its current
    RSS, so that ``peak_rss_mib`` covers only what follows.  False when
    the kernel does not offer it: the peak then spans the whole run."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib() -> float:
    """This process's resident-set high-water mark, in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids() -> List[int]:
    """The running children of this process, from ``/proc``."""
    pids = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            pass
    return pids


def stop_children() -> None:
    """Stop and wait for every process this run started.

    A shared-memory sweep (``parallel.jobs2_s``) starts multiprocessing's
    resource tracker, which is meant to outlive its parent.  Any other
    child still running is killed and reaped first, because a forked
    child holds the tracker's pipe open; then the tracker is stopped the
    way multiprocessing's own test clean-up does."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in child_pids():
        if pid == tracker._pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def trace_problems(workload, clock, inputs, wall: float) -> List[str]:
    """What is wrong with one traced repetition's layer times: self times
    that do not add up to the traced wall within ``COVERAGE_TOL``, a
    negative self time, or a layer entered another number of times than
    the program's own counters say it was called."""
    problems = []
    coverage = sum(clock.exclusive.values()) / wall
    negative = sorted(k for k, v in clock.exclusive.items() if v < 0)
    if abs(coverage - 1.0) > COVERAGE_TOL or negative:
        problems.append(
            f"layer times cover {coverage:.3f} of the traced wall; "
            f"negative self times: {negative}"
        )
    for layer, want in workload.expected_calls(inputs).items():
        got = len(clock.samples[layer])
        if got != want or want == 0:
            problems.append(
                f"layer {layer} timed {got} calls; the program's counters "
                f"say {want}"
            )
    return problems


def _median_index(values: List[float]) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[len(order) // 2]


def measure(workload, seed: int, seconds: float, trace: bool) -> Dict:
    """Run ``workload`` as described in the module docstring."""
    from calibration import timed
    from repro import obs
    from suite import PER_LAYER
    from tracing import LayerClock

    problems: List[str] = []
    setup_walls, setup_refs, input_hash = [], [], None
    deadline = time.perf_counter() + SETUP_MIN_S
    while len(setup_walls) < SETUP_MIN_REPS or time.perf_counter() < deadline:
        inputs = None
        gc.collect()
        inputs, wall, ref = timed(workload.setup, seed)
        setup_walls.append(wall)
        setup_refs.append(ref)
        if input_hash is None:
            input_hash = workload.identity(inputs)
    if workload.identity(inputs) != input_hash:
        problems.append(f"seed {seed} does not rebuild the same inputs")

    reference, found = workload.verify(inputs, seed)
    problems += found
    attempted, failed = 1, int(bool(problems))
    gc.collect()
    rss_reset = reset_peak_rss()

    walls: List[float] = []
    refs: List[float] = []
    rates: List[float] = []
    budget = seconds / 2 if trace else seconds
    deadline = time.perf_counter() + budget
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        output, wall, ref = timed(workload.run, inputs)
        found = workload.check(inputs, output, reference)
        attempted += 1
        failed += bool(found)
        problems += found[:3]
        walls.append(wall)
        refs.append(ref)
        rates.append(workload.items(inputs, output) / ref)
        del output

    result = {
        "input_sha256": input_hash,
        "setup_wall_s": setup_walls,
        "run_wall_s": walls,
        "items_per_s_samples": rates,
    }
    if not trace:
        metrics = {
            "items_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_refs),
        }
    else:
        traced, traced_refs, coverages = [], [], []
        deadline = time.perf_counter() + budget
        while not traced or time.perf_counter() < deadline:
            gc.collect()
            clock = LayerClock()
            obs.reset()
            obs.enable()
            try:
                (wall, output), _, ref = timed(workload.traced, inputs, clock)
            finally:
                obs.disable()
            found = workload.check(inputs, output, reference)[:3]
            del output
            found += trace_problems(workload, clock, inputs, wall)
            attempted += 1
            failed += bool(found)
            problems += found
            layers = workload.layer_metrics(clock, inputs)
            layers["trace.wall_s"] = wall
            traced.append(layers)
            traced_refs.append(ref)
            coverages.append(sum(clock.exclusive.values()) / wall)
        metrics = dict(traced[_median_index(traced_refs)])
        untraced = statistics.median(refs)
        metrics["obs.overhead_ratio"] = statistics.median(traced_refs) / untraced
        metrics["workloads.generate_s"] = statistics.median(
            workload.generate_s(seed) for _ in range(3)
        )
        extra, found = workload.extra_traced(inputs, reference, untraced)
        if extra:
            metrics.update(extra)
            attempted += 1
            failed += bool(found)
            problems += found[:3]
        metrics = {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
        result["trace_coverage"] = coverages

    if not trace:
        metrics["peak_rss_mib"] = peak_rss_mib()
        result["peak_rss_reset"] = rss_reset
    result.update(
        attempted=attempted, failed=failed, problems=problems, metrics=metrics
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # Timings must not depend on the caller's tracing, shadow-checking
    # or validation settings.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from suite import END_TO_END, PER_LAYER, workloads

    catalog = workloads()
    if args.workload not in catalog:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(catalog)}"
        )
    workload = catalog[args.workload]
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    units = PER_LAYER if args.trace else END_TO_END

    rates = result["items_per_s_samples"]
    q1, q2, q3 = statistics.quantiles(rates, n=4)
    print(f"workload   {workload.name} (seed {args.seed}, trace {args.trace})")
    print(f"why        {workload.why}")
    print(f"stresses   {', '.join(workload.stresses)}")
    print(f"bypasses   {', '.join(workload.bypasses)}")
    print(f"inputs     sha256 {result['input_sha256']}")
    print(f"throughput {q2:.6g} {workload.item}/s  "
          f"[p25 {q1:.6g}, p75 {q3:.6g}, n={len(rates)}]")
    print(f"failed     {result['failed']}/{result['attempted']} "
          f"(failed_ratio {result['failed'] / result['attempted']:.6g})")
    for problem in result["problems"][:20]:
        print(f"PROBLEM    {problem}")
    for name, value in result["metrics"].items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        "params": workload.params(),
        "input_sha256": result["input_sha256"],
        "items_per_s": {"median": q2, "p25": q1, "p75": q3,
                        "samples": len(rates)},
        "setup_wall_s": result["setup_wall_s"],
        "run_wall_s": result["run_wall_s"],
        "failed_ratio": result["failed"] / result["attempted"],
    }
    for key in ("trace_coverage", "peak_rss_reset"):
        if key in result:
            detail[key] = result[key]
    print(json.dumps({"detail": detail}, default=str))
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
