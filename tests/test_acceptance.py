"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime and asserting both the numeric tolerance and the time budget,
plus a guard that criterion 5's primitive list covers every autodiff op.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import inspect
import time

import numpy as np

import eigenlearn as el
from eigenlearn import autodiff as ad
from eigenlearn import train as tr
from eigenlearn.eigen import eigendecompose, eigenvalue_clusters, lowest_k
from eigenlearn.graphs import (build_adjacency, build_diffusion, build_laplacian,
                               generate_graph)
from eigenlearn.losses import (LossWeights, eigenspace_rotation, eigvec_loss,
                               energy_loss, random_special_orthogonal)
from eigenlearn.nn import combined_loss_t, orthonormalize
from eigenlearn.wavelets import build_wavelet_bank, diffused_dirac_embeddings
from helpers import max_rel_error, numeric_gradient, project


class Criterion:
    """Times a block, prints the PASS/FAIL line, enforces the budget."""

    def __init__(self, number: int, name: str, budget_seconds: float):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.number:2d}] {self.name}: {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.1f}s")
        return False


def random_er_graphs(count, seed, n_low, n_high):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_low, n_high + 1))
        p = float(rng.uniform(0.3, 0.7))
        out.append(generate_graph("erdos_renyi", {"n": n, "p": p},
                                  seed=int(rng.integers(1 << 31))))
    return out


def test_criterion_01_spectral_oracle():
    with Criterion(1, "spectral oracle correctness", 5.0):
        for n in range(3, 11):
            s = eigendecompose(build_laplacian(build_adjacency(generate_graph("path", {"n": n}))))
            closed = np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))
            assert np.max(np.abs(s.eigenvalues - closed)) <= 1e-8
        for g in random_er_graphs(100, seed=101, n_low=4, n_high=32):
            lap = build_laplacian(build_adjacency(g))
            s = eigendecompose(lap)
            recon = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
            assert np.linalg.norm(recon - lap) <= 1e-8 * max(np.linalg.norm(lap), 1e-30)


def test_criterion_02_wavelet_telescoping():
    with Criterion(2, "wavelet bank telescoping", 5.0):
        rng = np.random.default_rng(202)
        for g in random_er_graphs(100, seed=102, n_low=3, n_high=24):
            scales = int(rng.integers(0, 5))
            bank = build_wavelet_bank(build_diffusion(build_adjacency(g)), scales)
            total = np.sum(bank.operators, axis=0)
            assert np.max(np.abs(total - np.eye(g.num_nodes))) <= 1e-10


def test_criterion_03_invariance_suite():
    with Criterion(3, "basis/rotation invariance of the losses", 30.0):
        fixtures = [generate_graph("complete", {"n": 5}),
                    generate_graph("complete", {"n": 8}),
                    generate_graph("cycle", {"n": 6})]
        fixtures += random_er_graphs(50, seed=103, n_low=4, n_high=16)
        worst_energy = 0.0
        worst_eigvec = 0.0
        for gi, g in enumerate(fixtures):
            lap = build_laplacian(build_adjacency(g))
            s = eigendecompose(lap)
            clusters = eigenvalue_clusters(s.eigenvalues)
            rich = [c for c in clusters if c[1] - c[0] >= 2] or clusters
            rng = np.random.default_rng(1000 + gi)
            unique_lams = np.unique(np.round(s.eigenvalues, 10))
            for t in range(100):
                lo, hi = rich[t % len(rich)]
                psi = s.eigenvectors[:, lo:hi]
                rot = eigenspace_rotation(
                    psi, random_special_orthogonal(hi - lo, seed=131 * gi + t))
                u = rng.standard_normal(g.num_nodes)
                u /= np.linalg.norm(u)
                ru = rot @ u
                worst_energy = max(worst_energy, abs(u @ lap @ u - ru @ lap @ ru))
                lam = unique_lams[t % len(unique_lams)]
                before = np.linalg.norm(lap @ u - lam * u)
                after = np.linalg.norm(lap @ ru - lam * ru)
                worst_eigvec = max(worst_eigvec, abs(before - after))
        assert worst_energy <= 1e-8
        assert worst_eigvec <= 1e-8

        # energy is invariant to rotating the prediction inside its own span;
        # the eigenvector residual must not be
        rng = np.random.default_rng(33)
        for g in random_er_graphs(10, seed=104, n_low=5, n_high=16):
            lap = build_laplacian(build_adjacency(g))
            k = int(rng.integers(2, 5))
            q, _ = np.linalg.qr(rng.standard_normal((g.num_nodes, k)))
            rot = random_special_orthogonal(k, seed=int(rng.integers(1000)))
            assert abs(energy_loss(q, lap) - energy_loss(q @ rot, lap)) <= 1e-8
        lap = build_laplacian(build_adjacency(generate_graph("path", {"n": 6})))
        lam, psi = lowest_k(eigendecompose(lap), 3)
        assert np.all(np.diff(lam) > 1e-6)
        rot = random_special_orthogonal(3, seed=5)
        assert eigvec_loss(psi @ rot, lap, lam) - eigvec_loss(psi, lap, lam) > 1e-4


def test_criterion_04_energy_floor():
    with Criterion(4, "variational floor of the energy loss", 10.0):
        rng = np.random.default_rng(404)
        graphs = random_er_graphs(100, seed=105, n_low=5, n_high=16)
        spectra = [(build_laplacian(build_adjacency(g)),
                    eigendecompose(build_laplacian(build_adjacency(g))))
                   for g in graphs]
        for i in range(1000):
            lap, s = spectra[i % len(spectra)]
            n = lap.shape[0]
            k = int(rng.integers(1, min(6, n) + 1))
            floor = float(np.sum(s.eigenvalues[:k])) / k
            q, _ = np.linalg.qr(rng.standard_normal((n, k)))
            assert energy_loss(q, lap) >= floor - 1e-9


def _primitive_checks():
    """Criterion 5's primitive list: (op name, build, input arrays), where
    build(*tensors) applies the op to tensors made from the arrays and
    projects its output to one number. Every public op of `autodiff` that
    builds a Tensor has at least one entry."""
    rng = np.random.default_rng(55)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 2))
    m = rng.standard_normal((4, 4))
    adj = np.triu((rng.random((4, 4)) < 0.5).astype(float), 1)
    adj = adj + adj.T
    blocks = np.triu((rng.random((2, 4, 4)) < 0.5).astype(float), 1)
    blocks = blocks + np.swapaxes(blocks, 1, 2)
    stack = np.zeros((3, 6, 2))  # a padded stack of graphs with 5, 2 and 6 nodes
    for i, n in enumerate((5, 2, 6)):
        stack[i, :n] = rng.standard_normal((n, 2))

    def cubes(x):  # one value per graph: sum(x^3) / 3, with gradient x^2
        return ad.scalar_with_grad(x, np.sum(x.values ** 3, axis=(1, 2)) / 3.0, x.values ** 2)

    def dense(relu, rate=0.0):
        # dropout: identical generator seed per evaluation pins the mask
        return lambda x, w, bias: project(ad.dense(x, w, bias, relu, rate,
                                                   np.random.default_rng(9)))

    # the ReLU entries' pre-activations all lie 0.25 or more from the kink,
    # far beyond what a finite-difference step moves them
    return [
        ("add", lambda x, y: project(ad.add(x, y)), [a, rng.standard_normal((4, 3))]),
        ("mul", lambda x, y: project(ad.mul(x, y)), [a, rng.standard_normal((4, 3))]),
        ("reshape", lambda x: project(ad.reshape(x, (3, 4))), [a]),
        ("dense", dense(relu=True), [a, b, rng.standard_normal(2)]),
        ("dense", dense(relu=False), [a, b, rng.standard_normal(2)]),
        ("gin_aggregate", lambda x, e: project(ad.gin_aggregate(x, e, adj)), [m, np.array(0.3)]),
        ("gin_aggregate", lambda x, e: project(ad.gin_aggregate(x, e, blocks)),
         [rng.standard_normal((8, 3)), np.array(-0.2)]),
        ("thin_qr", lambda x: project(ad.thin_qr(x, 1e-8)), [rng.standard_normal((5, 3))]),
        ("thin_qr", lambda x: project(ad.thin_qr(x, 1e-8)), [stack]),
        ("scalar_with_grad", lambda x: project(cubes(x)), [stack]),
        ("dense", dense(relu=True, rate=0.3),
         [rng.standard_normal((5, 5)), rng.standard_normal((5, 4)), rng.standard_normal(4)]),
    ]


def _primitive_gradient_checks():
    for _, build, arrays in _primitive_checks():
        tensors = [ad.parameter(x) for x in arrays]
        build(*tensors).backward()
        for t, x in zip(tensors, arrays):
            numeric = numeric_gradient(
                lambda: float(build(*[ad.Tensor(y) for y in arrays]).values), x)
            assert max_rel_error(t.grad, numeric) <= 1e-4


def test_criterion_05_gradient_correctness():
    with Criterion(5, "analytic gradients vs finite differences", 60.0):
        _primitive_gradient_checks()

        g = random_er_graphs(1, seed=505, n_low=8, n_high=8)[0]
        cfg = tr.config_from_dict({
            "k": 3, "hidden_dim": 8, "mp_layers": 2, "update_layers": 2,
            "head_layers": 2, "head_hidden_dim": 16, "max_nodes": 10,
            "dropout": 0.0, "seed": 2, "scheduler": {"kind": "none"},
            "feature_config": {"scales_J": 1},
        })
        ex = tr.precompute_targets([g], cfg)[0]
        model = tr.build_model(cfg, ex.features.shape[1])
        weights = LossWeights(1.0, 2.0, 0.0)

        def loss_tensor():
            u = model.forward([ex.adjacency], [ad.constant(ex.features)])
            lap, lam, _, _ = tr.padded_targets([ex], cfg.max_nodes)
            return combined_loss_t(orthonormalize(u), lap, lam, weights)

        loss_tensor().backward()
        worst = 0.0
        for name, p in model.parameters().items():
            flat = p.values.ravel()
            gflat = p.grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                up = loss_tensor().item()
                flat[i] = orig - 1e-5
                down = loss_tensor().item()
                flat[i] = orig
                numeric = (up - down) / 2e-5
                denom = max(abs(numeric), abs(gflat[i]), 1e-6)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
        assert worst <= 1e-3


def test_every_tape_op_has_a_criterion_05_gradient_check(monkeypatch):
    # every public op of autodiff that builds a Tensor (all but the leaf
    # constructors and no_grad) must be applied by an entry of criterion 5's
    # primitive list that names it, so a new op cannot land unchecked
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_")} - {"constant", "parameter", "no_grad"}
    applied = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            applied.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ops:
        monkeypatch.setattr(ad, name, spy(name, getattr(ad, name)))
    checked = set()
    for name, build, arrays in _primitive_checks():
        applied.clear()
        build(*[ad.parameter(x) for x in arrays])
        # the last op applied is the projection to one number
        assert applied[-1] == "scalar_with_grad" and name in applied[:-1], (name, applied)
        checked.add(name)
    assert ops <= checked, f"no gradient check in criterion 5 for {sorted(ops - checked)}"


def test_criterion_06_desk_scale_eigenvector_learning():
    with Criterion(6, "eigenvector learning on the 12-node cycle", 300.0):
        g = generate_graph("cycle", {"n": 12})
        cfg = tr.config_from_dict({
            "k": 4, "hidden_dim": 16, "max_nodes": 16,
            # head hidden follows the max_nodes * hidden_dim sizing heuristic
            "head_hidden_dim": 256,
            "epochs": 1500, "feature_config": {"scales_J": 2},
        })
        examples = tr.precompute_targets([g], cfg)
        model = tr.build_model(cfg, tr.feature_dim(examples))
        record, _ = tr.pretrain(examples, model, cfg)
        assert len(record.rows) == 1500
        optimum = float(np.sum(examples[0].lambda_k)) / cfg.k
        u_hat = model.predict(examples[0].graph, examples[0].features)
        achieved = energy_loss(u_hat, examples[0].laplacian)
        assert abs(achieved - optimum) <= 0.1 * optimum
        assert all(r.ortho_residual <= 1e-6 for r in record.rows)
        assert all(r.loss_energy >= optimum - 1e-6 for r in record.rows)
        trailing = np.mean([r.loss_total for r in record.rows[-100:]])
        leading = np.mean([r.loss_total for r in record.rows[:10]])
        assert trailing < leading


def comparison_dataset():
    rng = np.random.default_rng(5)
    kinds = ["path", "cycle", "star", "erdos_renyi"]
    graphs = []
    for i in range(50):
        kind = kinds[int(rng.integers(4))]
        n = int(rng.integers(8, 17))
        params = {"n": n, "p": 0.4} if kind == "erdos_renyi" else {"n": n}
        graphs.append(generate_graph(kind, params, seed=100 + i))
    return graphs


def test_criterion_07_loss_comparison_ordering():
    with Criterion(7, "loss-comparison ordering with >5% gaps", 600.0):
        cfg = tr.config_from_dict({
            "k": 3, "hidden_dim": 16, "mp_layers": 2, "update_layers": 2,
            "head_layers": 3, "head_hidden_dim": 128, "max_nodes": 16,
            "dropout": 0.0, "seed": 0, "epochs": 200, "batch_size": 8,
            "lr": 0.002, "scheduler": {"kind": "none"},
            "feature_config": {"scales_J": 2},
        })
        examples = tr.precompute_targets(comparison_dataset(), cfg)
        assert len(examples) == 50
        results = tr.compare_losses(examples, cfg)
        final = {arm: rows[-1].loss_eigvec for arm, rows in results.items()}
        ours = final[tr.ARM_OURS]
        baseline = final[tr.ARM_BASELINE]
        random_arm = final[tr.ARM_RANDOM]
        assert ours < baseline < random_arm
        assert (baseline - ours) / baseline > 0.05
        assert (random_arm - baseline) / random_arm > 0.05
        # the untrained arm must be flat across epochs
        rnd = results[tr.ARM_RANDOM]
        assert len({(r.loss_eigvec, r.loss_energy) for r in rnd}) == 1


def test_criterion_08_distinct_spectra_distinct_embeddings():
    with Criterion(8, "path-vs-star dirac embedding separation", 1.0):
        path = generate_graph("path", {"n": 4})
        star = generate_graph("star", {"n": 4})
        lam_p = eigendecompose(build_laplacian(build_adjacency(path))).eigenvalues
        lam_s = eigendecompose(build_laplacian(build_adjacency(star))).eigenvalues
        assert np.max(np.abs(lam_p - lam_s)) > 1e-6  # genuinely non-cospectral
        d1 = diffused_dirac_embeddings(
            build_wavelet_bank(build_diffusion(build_adjacency(path)), 2))
        d2 = diffused_dirac_embeddings(
            build_wavelet_bank(build_diffusion(build_adjacency(star)), 2))
        rows1 = np.array(sorted(map(tuple, d1.tolist())))
        rows2 = np.array(sorted(map(tuple, d2.tolist())))
        assert np.max(np.abs(rows1 - rows2)) > 1e-6


def test_criterion_09_finetuning_beats_mean_baseline():
    with Criterion(9, "fine-tuned lambda_2 regression beats predict-the-mean", 600.0):
        rng = np.random.default_rng(11)
        kinds = ["path", "cycle", "star", "erdos_renyi"]
        graphs = []
        for i in range(200):
            kind = kinds[int(rng.integers(4))]
            n = int(rng.integers(6, 17))
            params = {"n": n, "p": 0.4} if kind == "erdos_renyi" else {"n": n}
            g = generate_graph(kind, params, seed=500 + i)
            lam2 = float(eigendecompose(build_laplacian(build_adjacency(g))).eigenvalues[1])
            graphs.append(el.Graph(g.num_nodes, g.edges, None, {"lambda_2": lam2}))
        cfg = tr.config_from_dict({
            "k": 3, "hidden_dim": 16, "mp_layers": 2, "update_layers": 2,
            "head_layers": 3, "head_hidden_dim": 128, "max_nodes": 16,
            "dropout": 0.0, "seed": 0, "epochs": 30, "batch_size": 16,
            "lr": 0.002, "scheduler": {"kind": "none"},
            "feature_config": {"scales_J": 2},
        })
        examples = tr.precompute_targets(graphs, cfg)
        order = np.random.default_rng(3).permutation(len(examples))
        val = [examples[i] for i in order[:40]]
        train = [examples[i] for i in order[40:]]
        model = tr.build_model(cfg, tr.feature_dim(examples))
        tr.pretrain(train, model, cfg)
        head = tr.build_downstream_head(cfg)
        tr.finetune(train, model, head, dataclasses.replace(cfg, finetune_epochs=60), "lambda_2")
        mae = tr.evaluate_mae(model, head, val, cfg, "lambda_2")
        train_mean = float(np.mean([ex.graph.graph_targets["lambda_2"] for ex in train]))
        baseline = float(np.mean([abs(ex.graph.graph_targets["lambda_2"] - train_mean)
                                  for ex in val]))
        assert mae < baseline


def test_criterion_10_determinism_and_persistence(tmp_path):
    with Criterion(10, "seeded determinism and checkpoint persistence", 120.0):
        graphs = random_er_graphs(5, seed=110, n_low=5, n_high=10)
        cfg = tr.config_from_dict({
            "k": 2, "epochs": 6, "batch_size": 4, "lr": 0.005,
            "hidden_dim": 6, "mp_layers": 2, "update_layers": 2,
            "head_layers": 2, "head_hidden_dim": 12, "max_nodes": 12,
            "dropout": 0.1, "seed": 7,
            "scheduler": {"kind": "reduce_on_plateau", "patience": 2, "factor": 0.9},
            "feature_config": {"scales_J": 1},
        })
        examples = tr.precompute_targets(graphs, cfg)
        d_in = tr.feature_dim(examples)

        def run(epochs):
            sub_cfg = tr.config_from_dict({**dataclasses.asdict(cfg), "epochs": epochs})
            model = tr.build_model(sub_cfg, d_in)
            record, state = tr.pretrain(examples, model, sub_cfg)
            return model, record, state

        model_a, rec_a, _ = run(6)
        model_b, rec_b, _ = run(6)
        # identical seeds give byte-identical serialized records (the wall
        # clock column is zeroed in the timing-free serialization)
        assert rec_a.to_csv(include_timing=False).encode() == \
            rec_b.to_csv(include_timing=False).encode()
        for (na, pa), (nb, pb) in zip(model_a.parameters().items(),
                                      model_b.parameters().items()):
            assert na == nb and np.array_equal(pa.values, pb.values)

        # mid-run checkpoint: 3 epochs, save, load, 3 more
        model_h, rec_h, state_h = run(3)
        path = tmp_path / "mid.json"
        tr.save_checkpoint(str(path), model_h, cfg, state_h, d_in)
        model_r, cfg_r, state_r, _, _, _ = tr.load_checkpoint(str(path))
        rec_tail, _ = tr.pretrain(examples, model_r, cfg_r, state_r)
        assert rec_h.deterministic_key() + rec_tail.deterministic_key() == \
            rec_a.deterministic_key()
        for (na, pa), (nr, pr) in zip(model_a.parameters().items(),
                                      model_r.parameters().items()):
            assert na == nr and np.array_equal(pa.values, pr.values)
