"""Self-tests of the benchmark: tiny runs of every workload, the computed
counts, the tracer, and runs whose outputs must fail verification.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import run
import tracing

sys.path.insert(0, str(run.ROOT / "src"))

TINY = {
    "desk_quanv": {"height": 64, "width": 128, "rects": 6, "epochs": 2},
    "desk_baseline": {"height": 64, "width": 128, "rects": 6, "epochs": 2},
    "scene_q12": {"height": 32, "width": 32, "rects": 2},
}
END_TO_END, PER_LAYER = run.declared_metrics()
COMPUTED = ("quanvolution.amp_updates", "nn.ops.conv2d.flops", "nn.ops.conv2d.im2col_bytes")


def tiny_run(workload, trace, seed=3):
    return run.run(workload, seed, 0, trace, TINY[workload])


@pytest.fixture(scope="module")
def traced_quanv():
    return [tiny_run("desk_quanv", 1) for _ in range(2)]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_reports_every_end_to_end_metric(workload):
    result, detail = tiny_run(workload, 0)
    assert result["correct"] and result["failed"] == 0, detail.get("failure")
    assert result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("workload", ["desk_baseline", "scene_q12"])
def test_smoke_traced_reports_every_layer_metric(workload):
    result, detail = tiny_run(workload, 1)
    assert result["correct"], detail.get("failure")
    assert detail["absent"] == []
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER


def test_traced_quanv_covers_both_sides(traced_quanv):
    (result, detail), _ = traced_quanv
    assert result["correct"], detail.get("failure")
    assert set(result["metrics"]) == set(PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["quanvolution.quanvolve.calls"] == 2  # 1 train + 1 test patch
    assert values["backend.run_windows.busy_s"] > 0
    assert values["nn.ops.conv2d_backward.calls"] > 0
    assert values["training.steps"] == values["nn.optim.adam_step.calls"] == 2


def test_computed_counts_repeat_exactly(traced_quanv):
    first, second = (result["metrics"] for result, _ in traced_quanv)
    for name in COMPUTED:
        assert first[name]["value"] > 0
        assert first[name]["value"] == second[name]["value"]
    windows = first["quanvolution.quanvolve.windows"]["value"]
    assert windows == 2 * 64 * 64
    # basic_entangled, 9 qubits, 2 layers: 9 RY and 9 CNOT gates per layer
    assert first["quanvolution.amp_updates"]["value"] == windows * 36 * 2**9


def test_corrupted_stack_fails_verification(monkeypatch):
    from quanvseg import cli

    write_tensor = cli.write_tensor

    def corrupt(path, array):
        array = array.copy()
        array[:, 0, 0] += 0.25
        write_tensor(path, array)

    monkeypatch.setattr(cli, "write_tensor", corrupt)
    result, detail = tiny_run("scene_q12", 0)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"] == {}
    assert "simulator" in detail["failure"]


def test_nonzero_exit_fails_verification(monkeypatch):
    from quanvseg import cli

    monkeypatch.setattr(cli, "cmd_eval", lambda args: 1)
    result, detail = tiny_run("desk_baseline", 0)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"] == {}
    assert detail["failure"] == "eval exited with 1"


def test_absent_layer_is_reported_absent_not_zero(monkeypatch):
    resolve = tracing._resolve
    monkeypatch.setattr(tracing, "_resolve", lambda module, path: (
        None if module == "quanvseg.backend" else resolve(module, path)))
    result, detail = tiny_run("desk_baseline", 1)
    assert result["correct"], detail.get("failure")
    assert detail["absent"] == ["backend.run_windows.busy_s"]
    assert set(result["metrics"]) == set(PER_LAYER) - {"backend.run_windows.busy_s"}


def test_instrumentation_restores_the_program():
    from quanvseg import cli
    from quanvseg.nn import ops

    before = (cli.quanvolve, ops.conv2d_forward)
    with tracing.Instrumentation(tracing.Tracer()):
        assert (cli.quanvolve, ops.conv2d_forward) != before
    assert (cli.quanvolve, ops.conv2d_forward) == before


def test_middle_mean_drops_a_quarter_at_each_end():
    samples = [{"wall_s": v} for v in (9.0, 1.0, 2.0, 3.0, 4.0, 0.1, 5.0, 6.0)]
    assert run.middle_mean_of(samples, lambda s: s["wall_s"]) == 3.5
    assert run.middle_mean_of(samples[:3], lambda s: s["wall_s"]) == 4.0


def test_loop_stops_where_the_run_comes_closest_to_its_length(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def step(seconds):
        steps.append(seconds)
        clock[0] += seconds

    steps = []
    run.repeat_for(10.0, lambda: step(3.0))
    assert steps == [3.0] * 3  # 9 s is closer to 10 s than 12 s is
    steps = []
    run.repeat_for(10.0, lambda: step(6.0))
    assert steps == [6.0] * 2  # 12 s is closer than 6 s
    steps = []
    run.repeat_for(0.0, lambda: step(1.0))
    assert steps == [1.0]


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    barrier = threading.Barrier(2)

    def child():
        barrier.wait(timeout=10)
        index = tracer.begin("child")
        time.sleep(0.05)
        tracer.end(index)

    workers = [threading.Thread(target=child) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    tracer.end(outer)
    summary = tracer.summary()
    calls, busy, own = summary["child"]
    assert calls == 2 and busy >= 0.1
    outer_calls, outer_busy, outer_self = summary["outer"]
    assert all(span[3] == outer for span in tracer.spans if span[0] == "child")
    # the two children overlap, so the parent loses their union, not their sum
    assert outer_busy - busy < outer_self < outer_busy


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_quanv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
