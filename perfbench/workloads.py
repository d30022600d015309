"""The three benchmark workloads and the checks on their outputs.

Every workload drives ``quanvseg.cli.main(argv)`` in process, one
subcommand after another (a closed loop with one client).  ``setup``
writes the seeded input files, ``cycle`` runs the timed subcommands once
and checks what they wrote, and the optional final check compares a
sample of the results with an independent reference.  The fixture dict
that ``setup`` returns names the input files and also keeps the first
cycle's outputs, which later cycles must repeat exactly.  A failed
subcommand or check raises ``Failed``; the caller then reports no times
for the run.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import time
import traceback
from contextlib import redirect_stdout

import numpy as np

TOL = 1e-9


class Failed(Exception):
    """A subcommand exited non-zero or an output check failed."""


class Session:
    """Runs subcommands and checks, counting attempts and failures.

    With a tracer, each subcommand is recorded as a ``cli.<name>`` span.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def cli(self, argv):
        """Run one subcommand; returns (wall seconds, captured stdout)."""
        from quanvseg import cli

        self.attempted += 1
        out = io.StringIO()
        span = self.tracer.begin(f"cli.{argv[0]}") if self.tracer else None
        start = time.perf_counter()
        try:
            with redirect_stdout(out):
                code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a traceback escaping main() is a failed call
            traceback.print_exc()
            code = f"an uncaught {type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            if span is not None:
                self.tracer.end(span)
        if code != 0:
            self.failed += 1
            raise Failed(f"{argv[0]} exited with {code}")
        return seconds, out.getvalue()

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            raise Failed(message)


def _sets(**pairs):
    argv = []
    for key, value in pairs.items():
        argv += ["--set", f"{key.replace('__', '.')}={value}"]
    return argv


def _split_sizes(patch_dir):
    with open(os.path.join(patch_dir, "index.txt"), encoding="ascii") as fh:
        labels = [line.split()[1] for line in fh if line.strip()]
    return labels.count("train"), labels.count("test")


def digest(paths):
    """One hash over the contents of the files, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _synth(session, fx_dir, size, seed):
    scene, mask = os.path.join(fx_dir, "scene.pgm"), os.path.join(fx_dir, "mask.pgm")
    session.cli(["synth-data", "--height", size["height"], "--width", size["width"],
                 "--rects", size["rects"], "--seed", seed,
                 "--scene-out", scene, "--mask-out", mask])
    return scene, mask


def _patches(session, scene, mask, outdir, stride, seed):
    session.cli(["make-patches", "--scene", scene, "--mask", mask, "--outdir", outdir]
                + _sets(data__patch=64, data__stride=stride, train__seed=seed))
    return outdir


def _train(session, fx, work, extra):
    log = os.path.join(work, "train.log")
    seconds, _ = session.cli(["train", "--patches", fx["patches"],
                              "--checkpoint-out", os.path.join(work, "model"),
                              "--log-out", log] + extra)
    with open(log, encoding="ascii") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
    losses = [float(row[1]) for row in rows]
    session.check(len(losses) == fx["epochs"] and all(map(math.isfinite, losses)),
                  f"train log holds {len(losses)} epochs, not {fx['epochs']} finite losses")
    return seconds, losses[-1]


def _eval(session, fx, work):
    seconds, out = session.cli(["eval", "--patches", fx["patches"],
                                "--checkpoint", os.path.join(work, "model"),
                                "--split", "test"])
    final = out.splitlines()[-1]
    session.check(final.startswith("OA="), f"eval printed no OA line: {final!r}")
    return seconds, float(final.split()[0][3:])


def _desk_fixture(session, fx_dir, size, seed, overlap):
    scene, mask = _synth(session, fx_dir, size, seed)
    info = {"patches": _patches(session, scene, mask, os.path.join(fx_dir, "patches"), 64, seed),
            "epochs": size["epochs"]}
    info["train"], info["test"] = _split_sizes(info["patches"])
    paths = [scene, mask, os.path.join(info["patches"], "index.txt")]
    if overlap:
        info["overlap"] = _patches(session, scene, mask, os.path.join(fx_dir, "overlap"), 32, seed)
        info["overlap_n"] = sum(_split_sizes(info["overlap"]))
        paths.append(os.path.join(info["overlap"], "index.txt"))
    info["files"] = paths
    return info


def _repeats_exactly(session, fx, cycle):
    """Fixed seeds must give bit-identical loss and OA on every cycle."""
    first = fx.setdefault("first_cycle", cycle)
    for key in ("train_loss", "test_oa"):
        session.check(cycle[key] == first[key],
                      f"{key} changed between cycles: {first[key]} then {cycle[key]}")


# ---------------------------------------------------------------------
# desk_quanv


QUANV_MODEL = _sets(circuit__template="basic_entangled", circuit__qubits=9,
                    model__widths="4,8,16", train__batch=8)


def desk_quanv_setup(session, fx_dir, size, seed):
    return _desk_fixture(session, fx_dir, size, seed, overlap=False)


def desk_quanv_cycle(session, fx, work, seed):
    train_s, loss = _train(session, fx, work, ["--quanvolve"] + QUANV_MODEL + _sets(
        train__epochs=fx["epochs"], train__seed=seed))
    eval_s, oa = _eval(session, fx, work)
    cycle = {"wall_s": train_s + eval_s, "train_s": train_s, "infer_s": eval_s,
             "train_n": fx["train"] * fx["epochs"], "infer_n": fx["test"],
             "train_loss": loss, "test_oa": oa}
    _repeats_exactly(session, fx, cycle)
    return cycle


def desk_quanv_final_check(session, fx, seed):
    """Quanvolve one patch and compare sampled windows with the dense oracle."""
    from quanvseg.datapipe import load_patch_dir
    from quanvseg.qsim.circuits import build_circuit
    from quanvseg.quanvolution import QuanvConfig, quanvolve

    train_set, _ = load_patch_dir(fx["patches"])
    image = np.asarray(train_set.items[0].image, dtype=np.float64)
    spec = build_circuit("basic_entangled", 9, 2, 42)
    got = quanvolve(image, QuanvConfig(circuit=spec)).data
    rows, cols = _sample_windows(image.shape, seed)
    want = oracle_windows(spec, image, rows, cols)
    err = float(np.max(np.abs(got[:, rows, cols].T - want)))
    session.check(err <= TOL, f"quanvolve differs from the dense oracle by {err:.3g}")


# ---------------------------------------------------------------------
# desk_baseline


BASELINE_MODEL = _sets(model__widths="8,16,32", train__batch=8)


def desk_baseline_setup(session, fx_dir, size, seed):
    return _desk_fixture(session, fx_dir, size, seed, overlap=True)


def desk_baseline_cycle(session, fx, work, seed):
    from quanvseg.fileio import read_pgm

    train_s, loss = _train(session, fx, work, BASELINE_MODEL + _sets(
        train__epochs=fx["epochs"], train__seed=seed))
    eval_s, oa = _eval(session, fx, work)
    preds = os.path.join(work, "preds")
    predict_s, _ = session.cli(["predict", "--patches", fx["overlap"],
                                "--checkpoint", os.path.join(work, "model"),
                                "--outdir", preds, "--split", "all"])
    names = sorted(os.listdir(preds))
    session.check(len(names) == fx["overlap_n"],
                  f"predict wrote {len(names)} files for {fx['overlap_n']} patches")
    for name in names:
        values, maxval = read_pgm(os.path.join(preds, name))
        session.check(maxval == 255 and values.shape == (64, 64)
                      and bool(np.all((values == 0.0) | (values == 1.0))),
                      f"{name} is not a 64x64 binary mask")
        os.remove(os.path.join(preds, name))
    cycle = {"wall_s": train_s + eval_s + predict_s, "train_s": train_s,
             "train_n": fx["train"] * fx["epochs"],
             "infer_s": eval_s + predict_s, "infer_n": fx["test"] + fx["overlap_n"],
             "train_loss": loss, "test_oa": oa}
    _repeats_exactly(session, fx, cycle)
    return cycle


# ---------------------------------------------------------------------
# scene_q12


Q12 = _sets(circuit__template="strongly_entangled", circuit__qubits=12, quanv__kernel=3)


def scene_q12_setup(session, fx_dir, size, seed):
    scene, mask = _synth(session, fx_dir, size, seed)
    return {"scene": scene, "files": [scene, mask]}


def scene_q12_cycle(session, fx, work, seed):
    from quanvseg.fileio import read_pgm, read_tensor
    from quanvseg.qsim.circuits import build_circuit, parse_circuit

    stack_path = os.path.join(work, "stack.qvt1")
    circuit_path = os.path.join(work, "run.circuit")
    seconds, _ = session.cli(["quanvolve", "--input", fx["scene"], "--output", stack_path,
                              "--circuit-out", circuit_path] + Q12)
    image, _ = read_pgm(fx["scene"])
    with open(circuit_path, encoding="ascii") as fh:
        spec = parse_circuit(fh.read())
    session.check(spec == build_circuit("strongly_entangled", 12, 2, 42),
                  "--circuit-out does not hold the configured circuit")
    stack = read_tensor(stack_path)
    session.check(stack.shape == (12,) + image.shape and stack.dtype == np.float32,
                  f"stack has shape {stack.shape} and dtype {stack.dtype}")
    stack_digest = digest([stack_path])
    if "stack_digest" not in fx:
        rows, cols = _sample_windows(image.shape, seed)
        # The stack is stored as float32, so the reference is rounded the same way.
        want = simulator_windows(spec, image, rows, cols).astype(np.float32)
        err = float(np.max(np.abs(stack[:, rows, cols].T.astype(np.float64) - want)))
        session.check(err <= TOL, f"stack differs from the simulator by {err:.3g}")
        fx["stack_digest"] = stack_digest
    session.check(stack_digest == fx["stack_digest"], "stack changed between cycles")
    return {"wall_s": seconds, "quanv_s": seconds, "windows": image.size}


# ---------------------------------------------------------------------
# References for the window checks


def _sample_windows(shape, seed, count=24):
    """Corner windows plus a seeded sample of interior ones."""
    h, w = shape
    rng = np.random.default_rng(seed)
    rows = np.concatenate([[0, 0, h - 1, h - 1], rng.integers(0, h, count)])
    cols = np.concatenate([[0, w - 1, 0, w - 1], rng.integers(0, w, count)])
    return rows, cols


def _window_values(image, row, col, kernel=3):
    """Row-major k x k window at output position (row, col), same-reflect padding."""
    before, after = (kernel - 1) // 2, kernel // 2
    padded = np.pad(image, ((before, after), (before, after)), mode="reflect")
    return padded[row : row + kernel, col : col + kernel].reshape(-1)


def simulator_windows(spec, image, rows, cols):
    """Rescaled Z expectations per window from the single-state simulator."""
    from quanvseg.qsim import angle_encode, measure_z_expectations, run_circuit

    out = []
    for r, c in zip(rows, cols):
        state = run_circuit(spec, angle_encode(_window_values(image, r, c), spec.n_qubits))
        out.append(0.5 * (1.0 + measure_z_expectations(state)))
    return np.array(out)


def oracle_windows(spec, image, rows, cols):
    """Rescaled Z expectations per window from dense gate matrices.

    Multiplies the product-state encodings by every gate matrix of
    ``qsim.oracle`` in application order, which is what
    ``dense_unitary_oracle`` computes, without its six-qubit size cap.
    """
    from quanvseg.qsim.oracle import gate_unitary

    n = spec.n_qubits
    states = []
    for r, c in zip(rows, cols):
        values = _window_values(image, r, c)
        angles = np.zeros(n)
        angles[: values.size] = math.pi * values
        psi = np.ones(1, dtype=np.complex128)
        for theta in angles:
            psi = np.kron(psi, [math.cos(theta / 2), math.sin(theta / 2)])
        states.append(psi)
    psi = np.array(states).T
    for gate in spec.gates:
        psi = gate_unitary(gate, n) @ psi
    probs = np.abs(psi) ** 2
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    z = probs.T @ (1.0 - 2.0 * bits)
    return 0.5 * (1.0 + z)


WORKLOADS = {
    "desk_quanv": (desk_quanv_setup, desk_quanv_cycle, desk_quanv_final_check),
    "desk_baseline": (desk_baseline_setup, desk_baseline_cycle, None),
    "scene_q12": (scene_q12_setup, scene_q12_cycle, None),
}

SIZES = {
    "desk_quanv": {"height": 128, "width": 256, "rects": 24, "epochs": 8},
    "desk_baseline": {"height": 256, "width": 256, "rects": 40, "epochs": 5},
    "scene_q12": {"height": 64, "width": 64, "rects": 6},
}
