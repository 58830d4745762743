"""Per-layer spans for the traced benchmark run.

The tracer wraps eigenlearn's public functions and methods from outside the
package: each wrapper records a span (name, start, end, parent) and the
package itself is not edited. A function is rebound in every eigenlearn
module that holds it, because callers look names up in their own module
(`train.orthonormalize` is the same function as `nn.orthonormalize`).

A layer's self time is the time of its spans minus the time of the spans of
other layers they caused. `trace.probe` spans hold the tracer's own bookkeeping that needs
the arguments (walking the tape handed to `Tensor.backward`), so it is kept
out of every layer's self time.
"""

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("autodiff", "nn", "optim", "eigen", "wavelets", "graphs", "losses",
          "train", "data")

# autodiff's forward ops run about a hundred times per training step; a span
# on each would cost more than the op. Only backward is a span there, and the
# forward ops count as self time of the nn span that called them.
AUTODIFF_SPANS = ("Tensor.backward",)

PROBE = "trace.probe"
SKIP_EXCEPTIONS = ("NumericalFault", "RankDeficient")


def _tape_size(tensor, *args, **kwargs) -> int:
    """Nodes reachable from the tensor handed to backward, leaves included."""
    seen = {id(tensor)}
    stack = [tensor]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _param_count(adam, *args, **kwargs) -> int:
    return sum(p.values.size for p in adam.params.values())


def _matrix_order(m, *args, **kwargs) -> int:
    return len(m)


def _first_arg(path, *args, **kwargs):
    return path


# Span name -> function of the call's arguments whose result is kept as the
# span's info.
PROBES = {
    "autodiff.Tensor.backward": _tape_size,
    "optim.Adam.step": _param_count,
    "eigen.eigendecompose": _matrix_order,
    "train.save_checkpoint": _first_arg,
    "train.load_checkpoint": _first_arg,
    "data.load_dataset": _first_arg,
}


def targets():
    """(span name, owner, attribute) for every public function and method the
    layers define; classes contribute their constructor too."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"eigenlearn.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and layer != "autodiff":
                found.append((f"{layer}.{name}", module, name))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not inspect.isfunction(fn):
                        continue
                    span = f"{layer}.{name}.{attr}"
                    if layer == "autodiff":
                        if f"{name}.{attr}" in AUTODIFF_SPANS:
                            found.append((span, obj, attr))
                    elif attr == "__init__" or not attr.startswith("_"):
                        found.append((span, obj, attr))
    return found


def _eigenlearn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "eigenlearn" or name.startswith("eigenlearn."))]


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch and restore."""

    def __init__(self):
        # [name, start, end, parent index or -1, info, exception class name]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _span(self, name, start, end, info=None, raised=None):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, info, raised])

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = None
            if probe is not None:
                started = time.perf_counter()
                info = probe(*args, **kwargs)
                self._span(PROBE, started, time.perf_counter())
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, info, None]
            open_.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = time.perf_counter()
                open_.pop()

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _eigenlearn_modules()
        for name, owner, attr in targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, bound, original))
                        setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_self_times(self) -> list[float]:
        """Each span's duration minus the time spent inside spans of another
        layer that it caused, directly or through spans of its own layer.

        So `nn.GinEncoder.forward` keeps the time of the nn spans it calls and
        loses that of `graphs.build_adjacency`; summing the spans whose parent
        is in another layer gives each layer's self time.
        """
        layer = [span[0].split(".")[0] for span in self.spans]
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            if parent < 0 or layer[parent] == layer[i]:
                continue
            j = parent
            while j >= 0 and layer[j] == layer[parent]:
                own[j] -= end - start
                j = self.spans[j][3]
        return own


# Adam reads grad, m, v and the values and writes m, v and the values: seven
# float64 arrays the size of the parameters, not counting numpy temporaries.
ADAM_ARRAYS_TOUCHED = 7
FLOAT_BYTES = 8


def per_layer_metrics(tracer: Tracer, units: int, steps: int, wall: float) -> dict:
    """Per-layer metrics of a traced phase that ran `units` workload units of
    `steps` graph steps in `wall` seconds. `_per_step` values are divided by
    steps; counts and `self_ms` values without that suffix by units; `ms`
    and `ms_p50` are medians over calls. `self` is layer self time, as in
    `Tracer.layer_self_times`."""
    own = defaultdict(float)
    durations = defaultdict(list)
    infos = defaultdict(list)
    layer_self = defaultdict(float)
    skipped = 0
    root_time = 0.0
    for span, self_time in zip(tracer.spans, tracer.layer_self_times()):
        name, start, end, parent, info, raised = span
        layer = name.split(".")[0]
        parent_layer = tracer.spans[parent][0].split(".")[0] if parent >= 0 else None
        own[name] += self_time
        durations[name].append(end - start)
        infos[name].append(info)
        if parent_layer != layer:
            layer_self[layer] += self_time
        if parent < 0:
            root_time += end - start
        elif raised in SKIP_EXCEPTIONS and parent_layer == "train":
            skipped += 1

    def calls(name):
        return len(durations[name])

    def p50_ms(name, n=None):
        picked = [d for d, i in zip(durations[name], infos[name]) if n is None or i == n]
        return 1e3 * statistics.median(picked) if picked else 0.0

    def size(name):
        paths = [p for p in infos[name] if p and os.path.exists(p)]
        return os.path.getsize(paths[-1]) if paths else 0

    params = max(infos["optim.Adam.step"], default=0)
    m = {
        "autodiff.tape_nodes_per_step": (sum(infos["autodiff.Tensor.backward"]) / steps, "count"),
        "autodiff.backward.self_ms_per_step": (1e3 * own["autodiff.Tensor.backward"] / steps, "ms"),
    }
    for name in ("nn.GinEncoder.forward", "nn.GraphLevelHead.forward", "nn.orthonormalize",
                 "nn.combined_loss_t", "nn.abs_cos_mae_loss_t"):
        m[f"{name}.self_ms_per_step"] = (1e3 * own[name] / steps, "ms")
    m.update({
        "nn.EigenModel.predict.ms_p50": (p50_ms("nn.EigenModel.predict"), "ms"),
        "optim.Adam.step.calls": (calls("optim.Adam.step") / units, "count"),
        "optim.Adam.step.ms_p50": (p50_ms("optim.Adam.step"), "ms"),
        "optim.param_count": (params, "count"),
        "optim.Adam.step.bytes_computed": (ADAM_ARRAYS_TOUCHED * FLOAT_BYTES * params, "B"),
        "eigen.eigendecompose.calls": (calls("eigen.eigendecompose") / units, "count"),
    })
    for n in (16, 40, 100):
        m[f"eigen.eigendecompose.ms_p50.n{n}"] = (p50_ms("eigen.eigendecompose", n), "ms")
    m.update({
        "eigen.eigendecompose.share": (sum(durations["eigen.eigendecompose"]) / wall, "frac"),
        "wavelets.augment_features.calls": (calls("wavelets.augment_features") / units, "count"),
        "wavelets.augment_features.self_ms": (1e3 * own["wavelets.augment_features"] / units, "ms"),
        "graphs.build_adjacency.calls_per_step": (calls("graphs.build_adjacency") / steps, "count"),
    })
    for name in ("graphs.build_adjacency", "graphs.build_laplacian", "graphs.build_diffusion",
                 "train.precompute_targets"):
        m[f"{name}.self_ms"] = (1e3 * own[name] / units, "ms")
    m.update({
        "losses.energy_loss.calls": (calls("losses.energy_loss") / units, "count"),
        "losses.eigvec_loss.calls": (calls("losses.eigvec_loss") / units, "count"),
        "losses.self_ms": (1e3 * layer_self["losses"] / units, "ms"),
        "train.skipped_batches": (skipped / units, "count"),
        "train.save_checkpoint.ms": (p50_ms("train.save_checkpoint"), "ms"),
        "train.save_checkpoint.bytes": (size("train.save_checkpoint"), "B"),
        "train.load_checkpoint.ms": (p50_ms("train.load_checkpoint"), "ms"),
        "data.load_dataset.ms": (p50_ms("data.load_dataset"), "ms"),
        "data.load_dataset.bytes": (size("data.load_dataset"), "B"),
        "data.atomic_write_text.ms": (p50_ms("data.atomic_write_text"), "ms"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_step"] = (1e3 * layer_self[layer] / steps, "ms")
    m["trace.probe_ms_per_step"] = (1e3 * layer_self["trace"] / steps, "ms")
    m["bench.self_ms_per_step"] = (1e3 * (wall - root_time) / steps, "ms")
    m["trace.layer_share"] = (sum(layer_self[layer] for layer in LAYERS) / wall, "frac")
    return m
