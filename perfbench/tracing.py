"""Span tracer and the hooks that attach it to quanvseg's layers.

Hooks replace module attributes at the places where callers look them
up (``cli`` binds most entry points by name, ``unet`` calls ``ops.*``,
``training`` binds ``adam_step``, ``quanvolution`` calls
``backend.kernel().run_windows``), so no program file is touched.  A
hook whose target no longer exists is reported as absent, never as zero.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict
from types import SimpleNamespace

# The ops whose forward and backward passes are traced (nn.ops.<op>_*).
OPS = ("conv2d", "batchnorm", "relu", "maxpool2x2", "nearest_upsample2x",
       "transposed_conv2x", "concat_channels", "add", "mul", "sigmoid")


class Tracer:
    """In-memory spans (name, start, end, parent) plus named counters.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a worker of a thread pool) takes the
    innermost open span of the thread that made the tracer as its parent,
    which is the call that handed it the work.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self):
        with self._lock:
            self.spans = []
            self.counts = defaultdict(int)

    def begin(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name, value):
        with self._lock:
            self.counts[name] += value

    def summary(self):
        """{span name: (calls, busy seconds, self seconds)}.

        Busy time sums span durations, so spans running on several
        threads at once add up to more than the wall time.  Self time is
        a span's duration minus the part of it that its children cover.
        """
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                children[parent].append((start, end))
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            covered = 0.0
            reach = start
            for lo, hi in sorted(children[index]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - covered
        return {name: tuple(v) for name, v in out.items()}


def traced(tracer, name, fn, count=None):
    """fn wrapped in a span; `name` may be a callable of (args, kwargs)."""

    def wrapper(*args, **kwargs):
        index = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


# ---------------------------------------------------------------------
# Computed counts, derived from shapes at the wrapped call sites


def _count_quanvolve(tracer, args, kwargs, stack):
    config = args[1] if len(args) > 1 else kwargs["config"]
    windows = stack.height * stack.width
    tracer.count("quanvolution.quanvolve.windows", windows)
    tracer.count("quanvolution.amp_updates",
                 windows * len(config.circuit.gates) * (1 << config.n_qubits))


def _count_conv2d(tracer, args, kwargs, result):
    x, w = args[0], args[1]
    n, c_out, h_out, w_out = result[0].shape
    patch_len = w.shape[1] * w.shape[2] * w.shape[3]
    rows = n * h_out * w_out
    tracer.count("nn.ops.conv2d.flops", 2 * rows * patch_len * c_out)
    tracer.count("nn.ops.conv2d.im2col_bytes", rows * patch_len * x.dtype.itemsize)


def _count_file_bytes(span_name):
    def count(tracer, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.count(f"{span_name}.bytes", os.path.getsize(path))
    return count


def _forward_name(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "unet.forward_train" if train else "unet.forward_eval"


_forward_name.names = ("unet.forward_train", "unet.forward_eval")


def _traced_kernel(tracer, kernel):
    def wrapper():
        impl = kernel()
        return SimpleNamespace(run_windows=traced(tracer, "backend.run_windows",
                                                  impl.run_windows))
    return wrapper


# ---------------------------------------------------------------------
# Hook table: (module, attribute path, span name, counter)


def _hooks():
    hooks = [
        ("quanvseg.cli", "quanvolve", "quanvolution.quanvolve", _count_quanvolve),
        ("quanvseg.cli", "build_circuit", "qsim.build_circuit", None),
        ("quanvseg.cli", "parse_circuit", "qsim.parse_circuit", None),
        ("quanvseg.cli", "train", "training.train", None),
        ("quanvseg.cli", "evaluate", "training.evaluate", None),
        ("quanvseg.cli", "predict_masks", "training.predict_masks", None),
        ("quanvseg.cli", "save_checkpoint", "checkpoint.save_checkpoint", None),
        ("quanvseg.cli", "load_checkpoint", "checkpoint.load_checkpoint", None),
        ("quanvseg.cli", "load_patch_dir", "datapipe.load_patch_dir", None),
        ("quanvseg.training", "stack_patches", "training.stack_patches", None),
        ("quanvseg.training", "adam_step", "nn.optim.adam_step", None),
        ("quanvseg.training", "bce_loss", "nn.ops.bce_loss", None),
        ("quanvseg.unet", "AttentionUNet.forward", _forward_name, None),
        ("quanvseg.unet", "AttentionUNet.backward", "unet.backward", None),
        ("quanvseg.unet", "attention_gate_forward", "unet.attention_gate_forward", None),
        ("quanvseg.unet", "attention_gate_backward", "unet.attention_gate_backward", None),
    ]
    for module in ("quanvseg.cli", "quanvseg.datapipe"):
        for fn in ("read_tensor", "write_tensor"):
            hooks.append((module, fn, f"fileio.{fn}", _count_file_bytes(f"fileio.{fn}")))
    hooks.append(("quanvseg.cli", "write_pgm", "fileio.write_pgm",
                  _count_file_bytes("fileio.write_pgm")))
    for op in OPS:
        for side in ("forward", "backward"):
            counter = _count_conv2d if (op, side) == ("conv2d", "forward") else None
            hooks.append(("quanvseg.nn.ops", f"{op}_{side}", f"nn.ops.{op}_{side}", counter))
    return hooks


def _resolve(module_name, path):
    """(owner object, attribute name) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Instrumentation:
    """Installs every hook on enter and restores the originals on exit.

    `absent` lists the span names none of whose target functions exist in
    the program being measured.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.absent = []
        self._saved = []

    def _install(self, module_name, path, make_wrapper):
        found = _resolve(module_name, path)
        if found is None:
            return False
        owner, attr = found
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def __enter__(self):
        wanted, installed = set(), set()
        for module_name, path, name, counter in _hooks():
            names = getattr(name, "names", (name,))
            wanted.update(names)
            if self._install(module_name, path,
                             lambda fn: traced(self.tracer, name, fn, counter)):
                installed.update(names)
        wanted.add("backend.run_windows")
        if self._install("quanvseg.backend", "kernel",
                         lambda fn: _traced_kernel(self.tracer, fn)):
            installed.add("backend.run_windows")
        self.absent = sorted(wanted - installed)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        return False


# ---------------------------------------------------------------------
# Per-layer metrics of one traced cycle

# Subcommands of the timed cycles, recorded by the benchmark around main().
CLI_SPANS = ("cli.quanvolve", "cli.train", "cli.eval", "cli.predict")

# Counters and the span whose call sites they are taken at.
COUNTERS = {
    "quanvolution.quanvolve.windows": "quanvolution.quanvolve",
    "quanvolution.amp_updates": "quanvolution.quanvolve",
    "nn.ops.conv2d.flops": "nn.ops.conv2d_forward",
    "nn.ops.conv2d.im2col_bytes": "nn.ops.conv2d_forward",
    "fileio.read_tensor.bytes": "fileio.read_tensor",
    "fileio.write_tensor.bytes": "fileio.write_tensor",
    "fileio.write_pgm.bytes": "fileio.write_pgm",
}


def span_names():
    names = set(CLI_SPANS) | {"backend.run_windows"}
    for _, _, name, _ in _hooks():
        names.update(getattr(name, "names", (name,)))
    return sorted(names)


def layer_metrics(tracer, absent):
    """Calls, busy and self seconds of every span, the counters and the
    rates derived from them; nothing for a span listed in `absent`.
    A layer present but not called in the cycle reads zero."""
    summary = tracer.summary()
    values = {}
    for name in span_names():
        if name in absent:
            continue
        calls, busy, own = summary.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.busy_s"] = busy
        values[f"{name}.self_s"] = own
    for counter, span in COUNTERS.items():
        if span not in absent:
            values[counter] = tracer.counts.get(counter, 0)
    if "quanvolution.quanvolve" not in absent:
        busy = values["quanvolution.quanvolve.busy_s"]
        windows = values["quanvolution.quanvolve.windows"]
        values["quanvolution.quanvolve.windows_per_s"] = windows / busy if busy else 0.0
    if "nn.optim.adam_step" not in absent:
        values["training.steps"] = values["nn.optim.adam_step.calls"]
    quanvolution = importlib.import_module("quanvseg.quanvolution")
    if hasattr(quanvolution, "n_threads"):
        values["quanvolution.threads"] = quanvolution.n_threads()
    return values
