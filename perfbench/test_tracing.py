"""Tests of the traced benchmark run and of the compare report.

    python3 -m pytest perfbench/test_tracing.py

The workload tests run each workload for one untraced and one traced unit
(about a minute in all; pretrain-wide needs about 1 GB of memory).
"""

import contextlib
import sys

import pytest

import compare
import tracing
import workloads

# Per workload, per-layer metrics that must be nonzero: each names a layer
# the workload's unit runs.
NONZERO = {
    "compare-desk": [
        "autodiff.tape_nodes_per_step", "autodiff.backward.self_ms_per_step",
        "nn.GinEncoder.forward.self_ms_per_step", "nn.GraphLevelHead.forward.self_ms_per_step",
        "nn.orthonormalize.self_ms_per_step", "nn.combined_loss_t.self_ms_per_step",
        "nn.abs_cos_mae_loss_t.self_ms_per_step", "nn.EigenModel.predict.ms_p50",
        "optim.Adam.step.calls", "optim.param_count", "graphs.build_adjacency.calls_per_step",
        "losses.energy_loss.calls", "losses.eigvec_loss.calls", "train.self_ms_per_step",
    ],
    "pretrain-wide": [
        "autodiff.tape_nodes_per_step", "nn.GraphLevelHead.forward.self_ms_per_step",
        "optim.Adam.step.calls", "optim.Adam.step.ms_p50", "optim.Adam.step.bytes_computed",
        "graphs.build_adjacency.calls_per_step", "losses.eigvec_loss.calls",
        "train.self_ms_per_step",
    ],
    "spectra-prep": [
        "eigen.eigendecompose.calls", "eigen.eigendecompose.ms_p50.n16",
        "eigen.eigendecompose.ms_p50.n40", "eigen.eigendecompose.ms_p50.n100",
        "eigen.eigendecompose.share", "wavelets.augment_features.calls",
        "wavelets.augment_features.self_ms", "graphs.build_laplacian.self_ms",
        "graphs.build_diffusion.self_ms", "train.precompute_targets.self_ms",
    ],
    "infer-desk": [
        "nn.EigenModel.predict.ms_p50", "nn.orthonormalize.self_ms_per_step",
        "graphs.build_adjacency.calls_per_step", "train.save_checkpoint.ms",
        "train.save_checkpoint.bytes", "train.load_checkpoint.ms", "data.load_dataset.ms",
        "data.load_dataset.bytes", "data.atomic_write_text.ms",
    ],
}


def test_wrappers_replace_every_binding():
    originals = {}
    for name, owner, attr in tracing.targets():
        originals[name] = (owner, attr, vars(owner)[attr])
    modules = tracing._eigenlearn_modules()
    with tracing.Tracer():
        for name, (owner, attr, original) in originals.items():
            assert vars(owner)[attr] is not original, name
            for module in modules:
                assert original not in vars(module).values(), (name, module.__name__)
        train, nn, wavelets = (sys.modules[f"eigenlearn.{m}"] for m in ("train", "nn", "wavelets"))
        for fn in (train.orthonormalize, nn.orthonormalize, train.eigendecompose,
                   train.augment_features, nn.build_adjacency, wavelets.build_diffusion,
                   nn.EigenModel.predict, train.Adam.step):
            assert hasattr(fn, "__wrapped__"), fn.__name__
    for name, (owner, attr, original) in originals.items():
        assert vars(owner)[attr] is original, name


def test_layer_self_time_excludes_other_layers_only():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["train.pretrain", 0.0, 10.0, -1, None, None],
        ["nn.GinEncoder.forward", 1.0, 5.0, 0, None, None],
        ["nn.GinLayer.forward", 1.5, 4.0, 1, None, None],
        ["graphs.build_adjacency", 2.0, 3.0, 2, None, None],
        ["trace.probe", 6.0, 6.5, 0, None, None],
    ]
    assert tracer.layer_self_times() == [5.5, 3.0, 1.5, 1.0, 0.5]


@pytest.mark.parametrize("name", sorted(NONZERO))
def test_traced_run_counts_every_layer_it_runs(name):
    record, result = workloads.measure(workloads.WORKLOADS[name], seed=0, seconds=0, trace=True)
    assert result["correct"], record["checks"]
    metrics = result["metrics"]
    missing = [m for m in NONZERO[name] if not metrics[m]["value"] > 0]
    assert not missing
    # the layers' self times, the tracer's probes and the benchmark's own code
    # between spans add up to the traced wall time
    share = metrics["trace.layer_share"]["value"]
    rest = metrics["trace.probe_ms_per_step"]["value"] + metrics["bench.self_ms_per_step"]["value"]
    per_step = sum(metrics[f"{layer}.self_ms_per_step"]["value"] for layer in tracing.LAYERS)
    assert share == pytest.approx(per_step / (per_step + rest), rel=1e-6)


@pytest.mark.parametrize("name", ["compare-desk", "pretrain-wide"])
def test_tracing_leaves_final_loss_unchanged(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(0, str(tmp_path))
    losses = []
    for tracer in (contextlib.nullcontext(), tracing.Tracer()):
        workload.prepare(ctx)
        with tracer:
            losses.append(workload.final_loss(workload.run(ctx).output))
    assert losses[0] == losses[1]


def test_only_the_first_unit_keeps_its_output(tmp_path):
    workload = workloads.WORKLOADS["spectra-prep"]
    ctx = workload.setup(0, str(tmp_path))
    ctx.graphs = ctx.graphs[:2]
    units, failed = workloads.run_units(workload, ctx, 0.5, workload.calibration())
    assert failed == 0 and len(units) >= 2
    assert units[0].output is not None
    assert all(u.output is None and u.repeats_first for u in units[1:])


def test_compare_verdicts():
    parent = {seed: 100.0 + seed % 3 for seed in range(10)}

    def verdict(change, better, bound):
        return compare.verdict(parent, {s: change(v) for s, v in parent.items()},
                               better, bound)[1]

    assert verdict(lambda v: v, "higher", 0.1) == "unchanged"
    assert verdict(lambda v: v * 1.2, "higher", 0.1) == "improved"
    assert verdict(lambda v: v * 0.8, "higher", 0.1) == "worse"
    noisy = {seed: 100.0 * (1 + 0.5 * (seed % 2)) for seed in range(10)}
    assert compare.verdict(parent, noisy, "higher", 0.1)[1] == "unresolved"
    assert verdict(lambda v: v, "lower", 0.0) == "unchanged"
    assert verdict(lambda v: v + 1, "lower", 0.0) == "worse"
