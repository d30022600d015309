"""Attention-gated U-Net assembled from the hand-gradient ops.

A model is a flat dict of named parameter arrays plus a parallel dict of
batch-norm running statistics.  forward returns (output, tape): in train
mode each op, the attention gates' ops included, appends its backward and
cache to the Tape as it runs, and backward(tape, gy) consumes that tape in
reverse, freeing each cache once its backward has run, and returns (grads,
gx) with gradient names matching parameter names, which keeps the
optimizer and checkpoint code trivial; the layer sequence is written only
in forward.  Inference (train=False) records nothing, so each cache is
freed as soon as its op returns.
parameter_shapes is the single description of the topology: build_model,
count_params and init_gate_params walk it, and a checkpoint stores one
record per entry, in its order, and nothing else about the topology.

The attention gate rescales each skip connection: the upsampled decoder
features g and the skip features x_i are both projected by 1x1 convs to
a common width, summed, passed through ReLU, batch norm and a sigmoid,
projected back to a single channel, and that map multiplies x_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ShapeError, StateError
from .nn import ops
from .nn.gradcheck import gradcheck as _gradcheck

UPSAMPLE_KINDS = ("transposed", "nearest")


@dataclass(frozen=True)
class AttentionUNetConfig:
    """widths holds one channel count per level, encoder to bottleneck."""

    in_channels: int = 1
    widths: tuple[int, ...] = (8, 16, 32)
    upsample: str = "transposed"

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ConfigError(f"widths needs at least 2 entries, got {self.widths}")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must all be >= 1, got {self.widths}")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.upsample not in UPSAMPLE_KINDS:
            raise ConfigError(f"upsample must be one of {UPSAMPLE_KINDS}")

    @property
    def depth(self) -> int:
        """Levels, the bottleneck included: one per width."""
        return len(self.widths)

    @property
    def gate_widths(self) -> tuple[int, ...]:
        """Each skip's attention-gate width: half the skip's, at least 1."""
        return tuple(max(1, w // 2) for w in self.widths[:-1])


# Reference configurations calibrated against the target parameter
# budgets (34.8M full-band baseline; quantum variant at most 7% of it).
# Nearest+conv upsampling is what lands the baseline inside the 5% band;
# see count_params and the tests pinning both totals.
BASELINE_REFERENCE_CONFIG = AttentionUNetConfig(
    in_channels=1, widths=(64, 128, 256, 512, 1024), upsample="nearest"
)
QUANTUM_REFERENCE_CONFIG = AttentionUNetConfig(
    in_channels=9, widths=(16, 32, 64, 128, 256), upsample="nearest"
)


def _conv_shapes(name, c_in, c_out, k):
    yield "param", f"{name}.w", (c_out, c_in, k, k)
    yield "param", f"{name}.b", (c_out,)


def _bn_shapes(name, c):
    yield "param", f"{name}.gamma", (c,)
    yield "param", f"{name}.beta", (c,)
    yield "stat", f"{name}.mean", (c,)
    yield "stat", f"{name}.var", (c,)


def _gate_shapes(c_g, c_x, width, prefix=""):
    yield from _conv_shapes(f"{prefix}wg", c_g, width, 1)
    yield from _conv_shapes(f"{prefix}wx", c_x, width, 1)
    yield from _bn_shapes(f"{prefix}bn", width)
    yield from _conv_shapes(f"{prefix}wr", width, 1, 1)


def _allocate(table, rng, dtype):
    """Initialise a parameter_shapes table in order; returns (params, stats).

    Kernels (.w) are He-normal over their fan-in, which for the 2x2
    transposed upsampling kernel (c_in, c_out, 2, 2) is c_in; batch-norm
    scales and running variances start at one, everything else at zero.
    """
    params: dict[str, np.ndarray] = {}
    stats: dict[str, np.ndarray] = {}
    for kind, name, shape in table:
        if name.endswith(".w"):
            fan_in = shape[0] if name.endswith(".up.w") else math.prod(shape[1:])
            value = rng.normal(0.0, math.sqrt(2.0 / fan_in), shape).astype(dtype)
        elif name.endswith((".gamma", ".var")):
            value = np.ones(shape, dtype=dtype)
        else:
            value = np.zeros(shape, dtype=dtype)
        (params if kind == "param" else stats)[name] = value
    return params, stats


def init_gate_params(c_g: int, c_x: int, width: int, rng, dtype=np.float32):
    """Attention-gate parameters; returns (params, stats) dicts.

    Keys: wg.w/wg.b project g, wx.w/wx.b project x_i, bn.gamma/bn.beta
    normalize the activated sum, wr.w/wr.b map it to one channel.
    """
    return _allocate(_gate_shapes(c_g, c_x, width), rng, np.dtype(dtype))


class Tape:
    """Reverse-mode record of one forward pass (Baydin et al., arXiv:1502.05767).

    Values are named by integer slots: 0 .. n_inputs-1 are the inputs and
    each recorded op adds one slot, its output.  An entry is (backward,
    cache, input slots, parameter names).  The tape holds caches, never
    activations, so each activation is freed once its consumers have read
    it; replay frees each cache once its backward has run (Chen et al.,
    arXiv:1604.06174).  Ops are looked up on the ops module when recorded.

    A tape made with replayable=False, as inference makes it, keeps no
    entries: it runs the same ops, drops each cache as it arrives, names
    every output slot None and refuses to replay.  A replayed tape is
    consumed: it keeps no entries either, and refuses to replay again.
    """

    def __init__(self, params: dict, n_inputs: int, replayable: bool = True):
        self.params = params
        self.n_inputs = n_inputs
        self.replayable = replayable
        self.consumed = False
        self.entries = []

    def record(self, backward, cache, slots, names):
        """Append one op; returns the slot of its output (None if not kept)."""
        if not self.replayable:
            return None
        self.entries.append((backward, cache, tuple(slots), tuple(names)))
        return self.n_inputs + len(self.entries) - 1

    def run(self, op, *inputs, params=()):
        """ops.<op>_forward on the (value, slot) inputs, then the named
        parameters; returns (output, slot)."""
        out, cache = getattr(ops, f"{op}_forward")(
            *(value for value, _ in inputs), *(self.params[n] for n in params))
        return out, self.record(getattr(ops, f"{op}_backward"), cache,
                                (slot for _, slot in inputs), params)

    def batchnorm(self, h, stats, name, train):
        """Batch norm `name` on (value, slot) h; returns (output, slot) and
        stores the new running statistics (in eval mode the old) in stats."""
        names = (f"{name}.gamma", f"{name}.beta")
        out, stats[f"{name}.mean"], stats[f"{name}.var"], cache = ops.batchnorm_forward(
            h[0], *(self.params[n] for n in names),
            stats[f"{name}.mean"], stats[f"{name}.var"], train)
        return out, self.record(ops.batchnorm_backward, cache, (h[1],), names)

    def replay(self, gy):
        """Consume the tape in reverse from gy, the gradient of its last output.

        Returns (gradients keyed by parameter name, gradients of the
        inputs).  Each entry is popped before its backward runs, so its
        cache is freed before the next backward starts.  A slot read by
        several ops gets their gradients summed in arrival order.  The tape
        is consumed, so replaying it again raises StateError.
        """
        if not self.replayable:
            raise StateError("tape comes from an inference forward (train=False), "
                             "which keeps no caches; backward needs forward(x, train=True)")
        if self.consumed:
            raise StateError("tape was consumed by an earlier backward; run forward again")
        self.consumed = True
        pending = {self.n_inputs + len(self.entries) - 1: gy}
        grads = {}
        while self.entries:
            backward, cache, slots, names = self.entries.pop()
            out = backward(cache, pending.pop(self.n_inputs + len(self.entries)))
            out = out if isinstance(out, tuple) else (out,)
            for slot, g in zip(slots, out):
                pending[slot] = pending[slot] + g if slot in pending else g
            grads.update(zip(names, out[len(slots):]))
        return grads, [pending[slot] for slot in range(self.n_inputs)]


def _attention_gate(tape, g, x, prefix, stats, train):
    """The attention gate's 8 ops on `tape`, gating (value, slot) x by g.

    Parameters and statistics are named `prefix` + "wg.w" and so on, as
    "dec0.gate.wg.w" in a U-Net.  Returns ((output, slot), trace), where
    trace holds each intermediate value; a caller that drops it keeps
    none that no backward reads.
    """
    psi = tape.run("add", tape.run("conv2d", g, params=(f"{prefix}wg.w", f"{prefix}wg.b")),
                   tape.run("conv2d", x, params=(f"{prefix}wx.w", f"{prefix}wx.b")))
    psi_act = tape.run("relu", psi)
    psi_norm = tape.batchnorm(psi_act, stats, f"{prefix}bn", train)
    alpha = tape.run("sigmoid", psi_norm)
    rho = tape.run("conv2d", alpha, params=(f"{prefix}wr.w", f"{prefix}wr.b"))
    return tape.run("mul", rho, x), dict(psi=psi[0], psi_act=psi_act[0], psi_norm=psi_norm[0],
                                         alpha=alpha[0], rho=rho[0])


def attention_gate_forward(g, x_i, params, stats, train: bool = False):
    """Gate the skip features x_i by an attention map derived from g.

    Pipeline, in order: psi = conv1x1(g) + conv1x1(x_i); psi_act =
    ReLU(psi); psi_norm = BatchNorm(psi_act); alpha = sigmoid(psi_norm);
    rho = conv1x1(alpha) down to one channel; output = rho * x_i with
    channel broadcast.  Returns (output, (new_bn_mean, new_bn_var),
    cache); the cache holds the gate's own two-input tape and keeps each
    intermediate under its own key so tests can inspect the trace.  The
    U-Net runs the same ops on its own tape instead.
    """
    if g.ndim != 4 or x_i.ndim != 4 or g.shape[0] != x_i.shape[0] \
            or g.shape[2:] != x_i.shape[2:]:
        raise ShapeError(f"gate inputs misaligned: g {g.shape}, x {x_i.shape}")
    tape, stats = Tape(params, 2), dict(stats)
    (out, _), trace = _attention_gate(tape, (g, 0), (x_i, 1), "", stats, train)
    return out, (stats["bn.mean"], stats["bn.var"]), dict(trace, tape=tape)


def attention_gate_backward(cache, gy):
    """Returns (grad_g, grad_x, param grads keyed like init_gate_params)."""
    if not isinstance(cache, dict) or not isinstance(cache.get("tape"), Tape):
        raise StateError("cache does not come from attention_gate_forward")
    grads, (g_g, g_x) = cache["tape"].replay(gy)
    return g_g, g_x, grads


class AttentionUNet:
    """Encoder/decoder with one attention gate per skip connection."""

    def __init__(self, config: AttentionUNetConfig, params: dict, stats: dict,
                 dtype=np.float32):
        self.config = config
        self.params = params
        self.stats = stats
        self.dtype = np.dtype(dtype)

    def n_params(self) -> int:
        """Exhaustive enumeration of trainable scalars."""
        return sum(int(p.size) for p in self.params.values())

    def _conv_bn_relu(self, tape, h, stages, train):
        """3x3 conv -> batch norm -> ReLU once per (conv, bn) name
        prefix pair in stages, on the tape; returns (h, slot).

        Train mode refreshes the running statistics.  h is rebound stage by
        stage: the conv caches its own padded copy, so each activation is
        freed as soon as the next conv has read it, which bounds peak memory.
        """
        for conv, bn in stages:
            h = tape.run("conv2d", h, params=(f"{conv}.w", f"{conv}.b"))
            h = tape.batchnorm(h, self.stats, bn, train)
            h = tape.run("relu", h)
        return h

    def forward(self, x, train: bool = False):
        """(N, in_channels, H, W) -> (probabilities (N, 1, H, W) in (0, 1), tape).

        Spatial dims must be multiples of 2^(depth-1).  Train mode
        refreshes this model's batch-norm running statistics and returns a
        tape that one backward consumes.  Inference (train=False) returns a tape
        with no entries, which backward rejects: no op cache outlives its
        op, so an inference forward holds only the live activations.
        """
        cfg = self.config
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != cfg.in_channels:
            raise ShapeError(
                f"expected (N, {cfg.in_channels}, H, W), got {x.shape}"
            )
        unit = 1 << (cfg.depth - 1)
        if x.shape[2] % unit or x.shape[3] % unit:
            raise ShapeError(
                f"spatial dims must be multiples of {unit}, got {x.shape[2:]}"
            )
        tape = Tape(self.params, 1, replayable=train)

        def dconv(h, prefix):
            return self._conv_bn_relu(tape, h, ((f"{prefix}.conv1", f"{prefix}.bn1"),
                                                (f"{prefix}.conv2", f"{prefix}.bn2")), train)

        skips = []
        h = (x, 0)
        for i in range(cfg.depth - 1):
            h = dconv(h, f"enc{i}")
            skips.append(h)
            h = tape.run("maxpool2x2", h)
        h = dconv(h, "bottleneck")
        for i in range(cfg.depth - 2, -1, -1):
            up, gate = f"dec{i}.up", f"dec{i}.gate"
            if cfg.upsample == "transposed":
                h = tape.run("transposed_conv2x", h, params=(f"{up}.w", f"{up}.b"))
            else:
                h = self._conv_bn_relu(tape, tape.run("nearest_upsample2x", h),
                                       ((f"{up}.conv", f"{up}.bn"),), train)
            # [0] drops the gate's trace at once, so no intermediate outlives it.
            gated = _attention_gate(tape, h, skips.pop(), f"{gate}.", self.stats, train)[0]
            h = dconv(tape.run("concat_channels", gated, h), f"dec{i}")
        h = tape.run("conv2d", h, params=("head.w", "head.b"))
        out, _ = tape.run("sigmoid", h)
        return out, tape

    def backward(self, tape, gy):
        """Returns (grads keyed like params, gradient w.r.t. the input); consumes the tape."""
        if not isinstance(tape, Tape) or tape.params is not self.params:
            raise StateError("tape does not come from this model's forward")
        grads, (gx,) = tape.replay(gy)
        return grads, gx


def parameter_shapes(config: AttentionUNetConfig):
    """Yield ("param"|"stat", name, shape) for every tensor, in build order.

    The one description of the topology: build_model allocates from it,
    count_params sums it, and save_checkpoint and load_checkpoint write and
    read the records in its order.
    """
    def dconv(prefix, c_in, c_out):
        yield from _conv_shapes(f"{prefix}.conv1", c_in, c_out, 3)
        yield from _bn_shapes(f"{prefix}.bn1", c_out)
        yield from _conv_shapes(f"{prefix}.conv2", c_out, c_out, 3)
        yield from _bn_shapes(f"{prefix}.bn2", c_out)

    w = config.widths
    gate_w = config.gate_widths
    prev = config.in_channels
    for i in range(config.depth - 1):
        yield from dconv(f"enc{i}", prev, w[i])
        prev = w[i]
    yield from dconv("bottleneck", w[config.depth - 2], w[config.depth - 1])
    for i in range(config.depth - 2, -1, -1):
        if config.upsample == "transposed":
            yield "param", f"dec{i}.up.w", (w[i + 1], w[i], 2, 2)
            yield "param", f"dec{i}.up.b", (w[i],)
        else:
            yield from _conv_shapes(f"dec{i}.up.conv", w[i + 1], w[i], 3)
            yield from _bn_shapes(f"dec{i}.up.bn", w[i])
        yield from _gate_shapes(w[i], w[i], gate_w[i], prefix=f"dec{i}.gate.")
        yield from dconv(f"dec{i}", 2 * w[i], w[i])
    yield from _conv_shapes("head", w[0], 1, 1)


def build_model(config: AttentionUNetConfig, seed: int = 0,
                dtype=np.float32) -> AttentionUNet:
    """Allocate and He-initialize every parameter_shapes entry, in order."""
    dtype = np.dtype(dtype)
    params, stats = _allocate(parameter_shapes(config), np.random.default_rng(seed), dtype)
    return AttentionUNet(config, params, stats, dtype=dtype)


def count_params(config: AttentionUNetConfig) -> int:
    """Trainable parameter total from the config alone (no allocation).

    Sums the "param" entries of parameter_shapes; running statistics are
    excluded.  Matches AttentionUNet.n_params exactly.
    """
    return sum(math.prod(shape) for kind, _, shape in parameter_shapes(config)
               if kind == "param")


# ---------------------------------------------------------------------
# Gradient-verification battery


def gradcheck_suite(seed: int = 0):
    """Finite-difference checks for every op, the gate, and a toy model.

    Returns a list of GradCheckReport in execution order.  Tolerances:
    1e-7 for the purely linear 1x1 conv, 1e-4 for layers and the gate,
    1e-3 for the end-to-end depth-2 models, 1e-5 for the loss.
    """
    rng = np.random.default_rng(seed)
    reports = []

    def weighted(name, tol, arrays, fwd, bwd):
        """Check d(sum(fwd() * r))/d(array) against bwd(cache, r)."""
        out0 = fwd()[0]
        r = rng.normal(size=out0.shape)

        def loss():
            return float((fwd()[0] * r).sum())

        def grad():
            _, cache = fwd()
            out = bwd(cache, r)
            return list(out) if isinstance(out, tuple) else [out]

        reports.append(_gradcheck(name, loss, grad, arrays, tol, seed=seed))

    # conv2d: 1x1 is exactly linear, 3x3 padded is the workhorse
    x = rng.normal(size=(2, 3, 6, 6))
    w1 = rng.normal(size=(4, 3, 1, 1))
    b1 = rng.normal(size=4)
    weighted("conv1x1", 1e-7, [x, w1, b1],
             lambda: ops.conv2d_forward(x, w1, b1),
             ops.conv2d_backward)
    w3 = rng.normal(size=(4, 3, 3, 3))
    b3 = rng.normal(size=4)
    weighted("conv3x3-pad1", 1e-4, [x, w3, b3],
             lambda: ops.conv2d_forward(x, w3, b3),
             ops.conv2d_backward)

    # relu: keep probes away from the kink at 0
    xr = rng.uniform(0.2, 1.0, size=(2, 3, 4, 4)) \
        * rng.choice([-1.0, 1.0], size=(2, 3, 4, 4))
    weighted("relu", 1e-4, [xr], lambda: ops.relu_forward(xr), ops.relu_backward)

    xs = rng.normal(size=(2, 3, 4, 4))
    weighted("sigmoid", 1e-4, [xs], lambda: ops.sigmoid_forward(xs),
             ops.sigmoid_backward)

    # maxpool: distinct values so the argmax is stable under probing
    xp = (rng.permutation(2 * 3 * 4 * 4).astype(np.float64) * 0.1).reshape(2, 3, 4, 4)
    weighted("maxpool2x2", 1e-4, [xp], lambda: ops.maxpool2x2_forward(xp),
             ops.maxpool2x2_backward)

    xn = rng.normal(size=(2, 3, 3, 3))
    weighted("nearest_upsample2x", 1e-4, [xn],
             lambda: ops.nearest_upsample2x_forward(xn),
             ops.nearest_upsample2x_backward)

    xt = rng.normal(size=(2, 3, 4, 4))
    wt = rng.normal(size=(3, 5, 2, 2))
    bt = rng.normal(size=5)
    weighted("transposed_conv2x", 1e-4, [xt, wt, bt],
             lambda: ops.transposed_conv2x_forward(xt, wt, bt),
             ops.transposed_conv2x_backward)

    ca = rng.normal(size=(2, 3, 4, 4))
    cb = rng.normal(size=(2, 2, 4, 4))
    weighted("concat_channels", 1e-4, [ca, cb],
             lambda: ops.concat_channels_forward(ca, cb),
             ops.concat_channels_backward)

    aa = rng.normal(size=(2, 3, 4, 4))
    ab = rng.normal(size=(1, 3, 1, 1))
    weighted("add-broadcast", 1e-4, [aa, ab],
             lambda: ops.add_forward(aa, ab), ops.add_backward)

    ma = rng.normal(size=(2, 1, 4, 4))
    mb = rng.normal(size=(2, 3, 4, 4))
    weighted("mul-broadcast", 1e-4, [ma, mb],
             lambda: ops.mul_forward(ma, mb), ops.mul_backward)

    # batch norm, both modes
    xb = rng.normal(size=(3, 4, 5, 5)) * 2.0 + 1.0
    gam = rng.uniform(0.5, 1.5, size=4)
    bet = rng.normal(size=4)
    run_m = rng.normal(size=4) * 0.1
    run_v = rng.uniform(0.5, 2.0, size=4)
    for mode, train in (("train", True), ("eval", False)):
        def bn_fwd(train=train):
            out, _, _, cache = ops.batchnorm_forward(xb, gam, bet, run_m, run_v, train)
            return out, cache

        weighted(f"batchnorm-{mode}", 1e-4, [xb, gam, bet], bn_fwd,
                 ops.batchnorm_backward)

    # loss: probes stay inside the clamp
    pred = rng.uniform(0.1, 0.9, size=(2, 1, 4, 4))
    target = (rng.uniform(size=(2, 1, 4, 4)) < 0.5).astype(np.float64)
    reports.append(_gradcheck(
        "bce_loss",
        lambda: ops.bce_loss(pred, target)[0],
        lambda: [ops.bce_loss(pred, target)[1]],
        [pred], 1e-5, seed=seed,
    ))

    # attention gate end to end, distinct channel counts on each input
    gate_params, gate_stats = init_gate_params(3, 4, 2, rng, np.float64)
    gg = rng.normal(size=(2, 3, 6, 6))
    gx = rng.normal(size=(2, 4, 6, 6))
    gate_arrays = [gg, gx] + [gate_params[k] for k in sorted(gate_params)]
    r_gate = rng.normal(size=(2, 4, 6, 6))

    def gate_loss():
        out, _, _ = attention_gate_forward(gg, gx, gate_params, gate_stats, True)
        return float((out * r_gate).sum())

    def gate_grad():
        _, _, cache = attention_gate_forward(gg, gx, gate_params, gate_stats, True)
        g_g, g_x, pg = attention_gate_backward(cache, r_gate)
        return [g_g, g_x] + [pg[k] for k in sorted(pg)]

    reports.append(_gradcheck(
        "attention_gate", gate_loss, gate_grad, gate_arrays, 1e-4, seed=seed))

    # toy end-to-end models, one per upsample kind
    for kind_index, kind in enumerate(UPSAMPLE_KINDS):
        cfg = AttentionUNetConfig(in_channels=2, widths=(3, 5), upsample=kind)
        model = build_model(cfg, seed=seed, dtype=np.float64)
        xm = rng.normal(size=(1, 2, 8, 8))
        rm = rng.normal(size=(1, 1, 8, 8))

        # Finite differences are only a valid oracle at a differentiable
        # point, and a freshly built model is not one: biases start at
        # zero, and the gate sums two post-relu maps, so psi is exactly
        # zero wherever both inputs are clamped.  Shift the bias-like
        # parameters off zero, re-drawing until the gate preactivation
        # clears a margin no probe step can cross.
        for attempt in range(16):
            nrng = np.random.default_rng([seed, kind_index, attempt])
            for pname, value in model.params.items():
                if pname.endswith(".b") or pname.endswith(".beta"):
                    value[...] = nrng.uniform(0.05, 0.2, value.shape) \
                        * nrng.choice([-1.0, 1.0], size=value.shape)
            # psi = wg(g) + wx(x) from the inputs the gate's convs cache
            _, probe_tape = model.forward(xm, train=True)
            inputs = {names[0]: cache[0] for backward, cache, _, names in probe_tape.entries
                      if backward is ops.conv2d_backward}
            wg, wx = (ops.conv2d_forward(inputs[f"dec0.gate.{p}.w"], *(
                model.params[f"dec0.gate.{p}.{k}"] for k in "wb"))[0] for p in ("wg", "wx"))
            margin = float(np.abs(wg + wx).min())
            if margin > 1e-3:
                break
        names = sorted(model.params)
        model_arrays = [xm] + [model.params[k] for k in names]

        def model_loss(model=model, xm=xm, rm=rm):
            out, _ = model.forward(xm, train=True)
            return float((out * rm).sum())

        def model_grad(model=model, xm=xm, rm=rm, names=names):
            out, tape = model.forward(xm, train=True)
            grads, gx_in = model.backward(tape, rm)
            return [gx_in] + [grads[k] for k in names]

        reports.append(_gradcheck(
            f"unet-depth2-{kind}", model_loss, model_grad, model_arrays,
            1e-3, seed=seed))

    return reports
