"""quanvseg benchmark: seeded CLI workloads, checked, then timed.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk_quanv --seed 1 --seconds 42 --trace 0

The run generates its input files from the seed, repeats the workload's
subcommands for about ``--seconds`` seconds and checks every output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace
1``.  The line before it holds the run's details: the environment, the
workload-specific metrics, per-cycle samples and absent layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-ups per run; `setup_s` is their median.
SETUP_REPEATS = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_commit():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    from quanvseg import quanvolution

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "quanvolution.n_threads": (quanvolution.n_threads()
                                   if hasattr(quanvolution, "n_threads") else None),
        "commit": git_commit(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QUANVSEG_THREADS"):
        env[var] = os.environ.get(var)
    try:
        from quanvseg import backend
        env["backend"] = backend.backend_name()
    except ImportError:
        env["backend"] = None
    return env


def repeat_for(seconds, step):
    """Call `step` repeatedly, at least once, and stop where the run's
    length comes closest to `seconds`: another call is made only if it is
    expected to end nearer to `seconds` than stopping now would."""
    start = time.perf_counter()
    took = []
    while True:
        began = time.perf_counter()
        step()
        took.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(took) / 2 >= seconds:
            return


def timed_loop(session, cycle, fx, work, seed, seconds):
    """Closed loop: repeat the cycle for about `seconds`."""
    samples = []
    repeat_for(seconds, lambda: samples.append(cycle(session, fx, work, seed)))
    return samples


def median_of(samples, fn):
    return statistics.median(fn(s) for s in samples)


def middle_mean_of(samples, fn):
    """Mean of the middle half of the cycles' values (interquartile mean).

    As a median does, it ignores the fastest and the slowest quarter of
    the cycles.  Unlike a median it does not jump from one speed to the
    other when the machine spends about half of a run in a slow spell, so
    it varies less from run to run.
    """
    values = sorted(fn(s) for s in samples)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def workload_metrics(samples, peak_rss_mb, setup_times):
    """Times over the cycles of a run: (value, unit) by metric name."""
    first = samples[0]
    out = {"setup_s": (statistics.median(setup_times), "s"),
           "wall_s": (middle_mean_of(samples, lambda s: s["wall_s"]), "s"),
           "peak_rss_mb": (peak_rss_mb, "MB")}
    if "train_s" in first:
        out["train_patches_per_s"] = (middle_mean_of(samples, lambda s: s["train_n"] / s["train_s"]), "1/s")
        out["infer_patches_per_s"] = (middle_mean_of(samples, lambda s: s["infer_n"] / s["infer_s"]), "1/s")
        out["test_oa"] = (first["test_oa"], "ratio")
        out["train_loss"] = (first["train_loss"], "nats")
    if "quanv_s" in first:
        out["quanv_windows_per_s"] = (middle_mean_of(samples, lambda s: s["windows"] / s["quanv_s"]), "1/s")
    return out


def traced_metrics(session, cycle, fx, work, seed, seconds):
    """Per-layer medians and the overhead of tracing.

    Untraced and traced cycles alternate, so that drift in the machine's
    speed during the run reaches both sides of the overhead ratio.
    """
    import tracing

    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []

    def pair():
        plain.append(cycle(session, fx, work, seed))
        session.tracer = tracer
        try:
            with tracing.Instrumentation(tracer) as inst:
                traced.append(cycle(session, fx, work, seed))
        finally:
            session.tracer = None
        layers.append(tracing.layer_metrics(tracer, inst.absent))
        tracer.reset()

    repeat_for(seconds, pair)
    values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    values["trace.overhead_frac"] = (median_of(traced, lambda s: s["wall_s"])
                                     / median_of(plain, lambda s: s["wall_s"]) - 1.0)
    return values, {"untraced": [s["wall_s"] for s in plain],
                    "traced": [s["wall_s"] for s in traced]}


def run(workload, seed, seconds, trace, size=None):
    """One benchmark run; returns (result line, details)."""
    from workloads import SIZES, WORKLOADS, Failed, Session, digest

    setup, cycle, final_check = WORKLOADS[workload]
    size = SIZES[workload] if size is None else size
    end_to_end, per_layer = declared_metrics()
    session = Session()
    detail = {"workload": workload, "seed": seed, "trace": trace, "size": size,
              "env": environment()}
    metrics = {}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    top = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        setup_times = []

        def set_up(name):
            """Time one fixture generation; every one must give the same files."""
            fx_dir = os.path.join(top, name)
            os.mkdir(fx_dir)
            start = time.perf_counter()
            made = setup(session, fx_dir, size, seed)
            setup_times.append(time.perf_counter() - start)
            made["digest"] = digest(made["files"])
            if setup_times[1:]:
                session.check(made["digest"] == fx["digest"],
                              "the same seed gave different input files")
                shutil.rmtree(fx_dir)
            return made

        fx = set_up("fixture")
        # The repeats run back to back before the first cycle: between
        # cycles they would overlap the write-back of the files the cycle
        # wrote, and time that instead of set-up.
        for _ in range(SETUP_REPEATS - 1):
            set_up("again")
        work = os.path.join(top, "work")
        os.mkdir(work)
        if trace:
            values, detail["cycle_walls_s"] = traced_metrics(session, cycle, fx, work, seed,
                                                             seconds)
            detail["absent"] = [name for name in per_layer if name not in values]
            found = {name: (values[name], unit) for name, unit in per_layer.items()
                     if name in values}
        else:
            samples = timed_loop(session, cycle, fx, work, seed, seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            named = workload_metrics(samples, peak, setup_times)
            detail["cycles"] = len(samples)
            detail["samples"] = samples
            detail["setup_samples_s"] = setup_times
            detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
            found = {name: (named[name][0], unit) for name, unit in end_to_end.items()}
        if final_check is not None:
            final_check(session, fx, seed)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in found.items()}
    except Failed as exc:
        detail["failure"] = str(exc)
    finally:
        shutil.rmtree(top, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is using it
            pass
    detail["error_rate"] = session.failed / max(session.attempted, 1)
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    return result, detail


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "quanvseg" / "cli.py").is_file():
        print(f"error: no quanvseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
