import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigenlearn import optim
from eigenlearn import train as tr
from eigenlearn.cli import main
from eigenlearn.data import load_dataset, save_dataset
from eigenlearn.graphs import generate_graph
from helpers import (UNWRITABLE, as_old_version, edit_header, random_graph_soup, read_header,
                     unwritable)


def write_dataset(path, graphs):
    save_dataset(str(path), graphs)
    return str(path)


@pytest.fixture
def p3_dataset(tmp_path):
    return write_dataset(tmp_path / "p3.jsonl", [generate_graph("path", {"n": 3})])


@pytest.fixture
def small_dataset(tmp_path):
    graphs = [generate_graph("cycle", {"n": 6}),
              generate_graph("path", {"n": 5}),
              generate_graph("erdos_renyi", {"n": 7, "p": 0.5}, seed=3)]
    return write_dataset(tmp_path / "small.jsonl", graphs)


def small_config(tmp_path, **overrides):
    cfg = {
        "k": 2, "epochs": 2, "batch_size": 4, "lr": 0.005,
        "hidden_dim": 6, "mp_layers": 2, "update_layers": 2,
        "head_layers": 2, "head_hidden_dim": 12, "max_nodes": 12,
        "dropout": 0.0, "seed": 0, "scheduler": {"kind": "none"},
        "feature_config": {"scales_J": 1},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_file_exits_1(tmp_path):
    code = main(["spectrum", "--input", str(tmp_path / "missing.jsonl"),
                 "--output", str(tmp_path / "out.jsonl")])
    assert code == 1


def test_malformed_record_exits_1_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"num_nodes": 2, "edges": []}\n{broken\n')
    code = main(["spectrum", "--input", str(bad),
                 "--output", str(tmp_path / "out.jsonl")])
    assert code == 1
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_spectrum_p3_eigenvalues(p3_dataset, tmp_path):
    out = tmp_path / "spec.jsonl"
    assert main(["spectrum", "--input", p3_dataset, "--output", str(out)]) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert np.allclose(rec["eigenvalues"], [0.0, 1.0, 3.0], atol=1e-10)
    assert len(rec["eigenvectors"]) == 3


def test_spectrum_does_not_mutate_input(p3_dataset, tmp_path):
    before = Path(p3_dataset).read_bytes()
    main(["spectrum", "--input", p3_dataset, "--output", str(tmp_path / "o.jsonl")])
    assert Path(p3_dataset).read_bytes() == before


def test_gen_data_deterministic_and_targeted(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ["gen-data", "--count", "12", "--seed", "5", "--n-min", "6",
            "--n-max", "10"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    graphs = load_dataset(str(a))
    assert len(graphs) == 12
    assert all("lambda_2" in g.graph_targets for g in graphs)


@pytest.mark.parametrize("n_min, n_max", [(2, 5), (17, 18)])
def test_gen_data_grids_keep_to_the_node_range(tmp_path, n_min, n_max):
    out = tmp_path / "grids.jsonl"
    assert main(["--quiet", "gen-data", "--kinds", "grid", "--count", "20", "--n-min",
                 str(n_min), "--n-max", str(n_max), "--output", str(out)]) == 0
    sizes = {g.num_nodes for g in load_dataset(str(out))}
    assert sizes == set(range(n_min, n_max + 1))


def test_features_writes_embeddings_and_preserves_fields(tmp_path):
    g = generate_graph("cycle", {"n": 6})
    from eigenlearn.graphs import Graph
    g = Graph(g.num_nodes, g.edges, None, {"lambda_2": 1.0})
    data = write_dataset(tmp_path / "in.jsonl", [g])
    out = tmp_path / "out.jsonl"
    cfg = tmp_path / "fcfg.json"
    cfg.write_text(json.dumps({"scales_J": 1}))
    assert main(["features", "--input", data, "--output", str(out),
                 "--config", str(cfg)]) == 0
    loaded = load_dataset(str(out))[0]
    assert loaded.node_features is not None
    assert loaded.node_features.shape == (6, 2 * 3 + 3)
    assert loaded.graph_targets == {"lambda_2": 1.0}
    assert loaded.edges == g.edges


def test_features_deterministic_bytes(tmp_path, small_dataset):
    out1 = tmp_path / "f1.jsonl"
    out2 = tmp_path / "f2.jsonl"
    for out in (out1, out2):
        assert main(["features", "--input", small_dataset, "--output", str(out),
                     "--seed", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("config", [{"scales": 1}, [1]])
def test_features_bad_config_exits_1_with_one_line(tmp_path, small_dataset, capsys, config):
    cfg = tmp_path / "fcfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["features", "--input", small_dataset, "--output", str(tmp_path / "o.jsonl"),
                 "--config", str(cfg), "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "feature config" in err and "\n" not in err


def test_pretrain_val_loss_schedule_exits_1(tmp_path, small_dataset, capsys):
    cfg = small_config(tmp_path, scheduler={"kind": "reduce_on_plateau",
                                            "monitored": "val_loss"})
    code = main(["pretrain", "--input", small_dataset, "--config", cfg,
                 "--output", str(tmp_path / "run.csv")])
    assert code == 1
    assert "val_loss" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("head_hidden_dim", 10 ** 12), ("hidden_dim", 10 ** 8), ("max_nodes", 10 ** 9),
    ("head_layers", 10 ** 10), pytest.param("hidden_dim", 10 ** 400, id="hidden_dim-10**400"),
    # a small model whose two padded (batch_size, max_nodes, max_nodes)
    # stacks would not fit
    ("batch_size", 10 ** 12),
])
def test_a_model_too_large_for_memory_exits_1_with_one_line(tmp_path, small_dataset, capsys,
                                                            field, value):
    # each once died inside build_model with a traceback (a numpy
    # ValueError or MemoryError); the count is now taken before anything is built
    config = small_config(tmp_path, **{field: value})
    code = main(["pretrain", "--input", small_dataset, "--config", config,
                 "--output", str(tmp_path / "run.csv")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {config}: the model of this config has ")
    assert f"{field}={value}" in err and "Traceback" not in err
    assert not (tmp_path / "run.csv").exists()


def test_a_downstream_head_too_large_for_memory_is_refused_naming_the_checkpoint(
        tmp_path, capsys, monkeypatch, small_dataset):
    # a node-wise model that fits, and a downstream head that does not (the
    # model too large in a config or a checkpoint: CORRUPT_CONFIGS and
    # CORRUPT_CHECKPOINTS)
    data, out, checkpoint = small_dataset, tmp_path / "out.csv", tmp_path / "nw"
    assert main(["--quiet", "pretrain", "--input", data, "--output", str(tmp_path / "pre.csv"),
                 "--config", small_config(tmp_path, k=3, head_kind="node_wise"),
                 "--checkpoint-out", str(checkpoint)]) == 0
    cfg = tr.config_from_dict(read_header(checkpoint)["config"])
    size = tr.downstream_head_size(cfg)
    assert tr.model_size(cfg, read_header(checkpoint)["d_in"]) < size
    need = 8 * (3 * size + 2 * cfg.batch_size * cfg.max_nodes ** 2)
    monkeypatch.setattr(tr, "physical_memory", lambda: need - 1)
    capsys.readouterr()
    assert main(["--quiet", "finetune", "--input", data, "--checkpoint", str(checkpoint),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {checkpoint}: the downstream head of this config has ")
    assert not out.exists()


def test_features_isolated_node_exit_1(tmp_path, capsys):
    # the graph on line 3, after a blank line, has an isolated node
    bad = tmp_path / "iso.jsonl"
    bad.write_text('{"num_nodes": 2, "edges": [[0, 1]]}\n\n{"num_nodes": 3, "edges": [[0, 1]]}\n')
    code = main(["features", "--input", str(bad), "--output", str(tmp_path / "o.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}, line 3: node 2 has degree 0; diffusion is undefined\n"
    assert not (tmp_path / "o.jsonl").exists()


def test_pretrain_drops_a_one_node_graph(tmp_path, small_dataset, caplog):
    # k = 1 lets a one-node graph past the n < k filter; its node is isolated
    data = tmp_path / "with_one_node.jsonl"
    data.write_text('{"num_nodes": 1, "edges": []}\n' + Path(small_dataset).read_text())
    out = tmp_path / "run.csv"
    with caplog.at_level("INFO", logger="eigenlearn.train"):
        assert main(["pretrain", "--input", str(data), "--config", small_config(tmp_path),
                     "--k", "1", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    assert "dropped 1 of 4 graphs during target precomputation" in caplog.text


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
@pytest.mark.parametrize("command", ["gen-data --count 2", "spectrum --input {data}"])
def test_an_unwritable_output_exits_1_naming_it(tmp_path, p3_dataset, capsys, command, case):
    out = unwritable(tmp_path, case)
    capsys.readouterr()
    assert main(["--quiet", *command.format(data=p3_dataset).split(),
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {out}: cannot write the file "
                                       f"({UNWRITABLE[case]})\n")
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".part")]


def test_pretrain_writes_record_and_checkpoint(tmp_path, small_dataset):
    cfg = small_config(tmp_path)
    out = tmp_path / "run.csv"
    ckpt = tmp_path / "model.json"
    assert main(["--quiet", "pretrain", "--input", small_dataset, "--output",
                 str(out), "--config", cfg, "--checkpoint-out", str(ckpt)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epoch,loss_total,loss_energy,loss_eigvec,ortho_residual,lr,seconds"
    assert len(lines) == 3
    blob = read_header(ckpt)
    assert blob["format"] == "eigenlearn-checkpoint"
    assert blob["epoch"] == 2


def strip_seconds(csv_text):
    return ["," .join(line.split(",")[:-1]) for line in csv_text.splitlines()]


def test_pretrain_deterministic_modulo_timing(tmp_path, small_dataset):
    cfg = small_config(tmp_path)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["--quiet", "pretrain", "--input", small_dataset,
                     "--output", str(out), "--config", cfg]) == 0
        outs.append(out.read_text())
    assert strip_seconds(outs[0]) == strip_seconds(outs[1])


def test_pretrain_resume_matches_straight_run(tmp_path, small_dataset):
    cfg4 = small_config(tmp_path, epochs=4)
    straight = tmp_path / "straight.csv"
    assert main(["--quiet", "pretrain", "--input", small_dataset,
                 "--output", str(straight), "--config", cfg4]) == 0

    cfg2 = small_config(tmp_path, epochs=2)
    first = tmp_path / "first.csv"
    ckpt = tmp_path / "half.json"
    assert main(["--quiet", "pretrain", "--input", small_dataset,
                 "--output", str(first), "--config", cfg2,
                 "--checkpoint-out", str(ckpt)]) == 0
    second = tmp_path / "second.csv"
    assert main(["--quiet", "pretrain", "--input", small_dataset,
                 "--output", str(second), "--resume", str(ckpt),
                 "--epochs", "4"]) == 0

    joined = strip_seconds(first.read_text())[1:] + strip_seconds(second.read_text())[1:]
    assert joined == strip_seconds(straight.read_text())[1:]


@pytest.fixture
def half_run(tmp_path, small_dataset):
    """A 2-epoch pretrain checkpoint of small_dataset, and a function that
    resumes it for 2 more epochs from the given file, without --quiet:
    (exit code, the eigenlearn warnings logged)."""
    ckpt = tmp_path / "half.ckpt"
    assert main(["--quiet", "pretrain", "--input", small_dataset, "--output",
                 str(tmp_path / "first.csv"), "--config", small_config(tmp_path),
                 "--checkpoint-out", str(ckpt)]) == 0

    def resume(path, caplog):
        caplog.clear()
        with caplog.at_level("WARNING", logger="eigenlearn"):
            code = main(["pretrain", "--input", small_dataset, "--output",
                         str(tmp_path / "second.csv"), "--resume", str(path), "--epochs", "4"])
        return code, [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

    return ckpt, resume


def test_a_checkpoint_without_the_blas_thread_count_resumes_without_a_warning(
        tmp_path, half_run, caplog):
    ckpt, resume = half_run
    assert "blas_threads" not in read_header(ckpt)  # a new file is such a file
    assert resume(ckpt, caplog) == (0, [])
    assert (tmp_path / "second.csv").exists()


@pytest.mark.parametrize("value", [None, 1, 2, 64])
def test_a_checkpoint_with_any_valid_blas_thread_count_resumes_as_without_it(
        tmp_path, half_run, caplog, value):
    # files saved before every run computed at one BLAS thread carry the
    # count they were saved at; it is read and ignored
    ckpt, resume = half_run
    assert resume(ckpt, caplog) == (0, [])
    without = strip_seconds((tmp_path / "second.csv").read_text())
    older = tmp_path / "older.ckpt"
    older.write_bytes(edit_header(ckpt.read_bytes(),
                                  lambda header: header.update(blas_threads=value)))
    assert resume(older, caplog) == (0, [])
    assert strip_seconds((tmp_path / "second.csv").read_text()) == without


@pytest.mark.parametrize("value", [0, -1, 2.0, "2", True])
def test_a_bad_blas_thread_count_in_a_checkpoint_exits_1_naming_it(tmp_path, half_run, capsys,
                                                                   value):
    ckpt, _ = half_run
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(edit_header(ckpt.read_bytes(), lambda header: header.update(blas_threads=value)))
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert main(["--quiet", "pretrain", "--input", str(tmp_path / "unused.jsonl"), "--output",
                 str(out), "--resume", str(bad), "--epochs", "4"]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{bad}: checkpoint.blas_threads must be" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [("--k", "3", "k=2"), ("--seed", "7", "seed=0")])
def test_pretrain_resume_rejects_k_and_seed_overrides(tmp_path, small_dataset, capsys,
                                                      flag, value, field):
    ckpt = tmp_path / "half.json"
    assert main(["--quiet", "pretrain", "--input", small_dataset,
                 "--output", str(tmp_path / "first.csv"), "--config", small_config(tmp_path),
                 "--checkpoint-out", str(ckpt)]) == 0
    capsys.readouterr()
    out = tmp_path / "second.csv"
    code = main(["--quiet", "pretrain", "--input", small_dataset, "--output", str(out),
                 "--resume", str(ckpt), "--epochs", "4", flag, value])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert flag in err and field in err
    assert not out.exists()


def test_pretrain_resume_rejects_a_config_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pretrain", "--input", "d.jsonl", "--output", "run.csv",
              "--resume", "half.json", "--config", "config.json"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_finetune_end_to_end(tmp_path):
    data = tmp_path / "d.jsonl"
    assert main(["gen-data", "--count", "16", "--seed", "2", "--n-min", "6",
                 "--n-max", "10", "--output", str(data)]) == 0
    cfg = small_config(tmp_path, k=3)
    ckpt = tmp_path / "pre.json"
    assert main(["--quiet", "pretrain", "--input", str(data), "--output",
                 str(tmp_path / "pre.csv"), "--config", cfg,
                 "--checkpoint-out", str(ckpt)]) == 0
    out = tmp_path / "ft.csv"
    ft_ckpt = tmp_path / "ft.json"
    assert main(["--quiet", "finetune", "--input", str(data), "--checkpoint",
                 str(ckpt), "--output", str(out), "--epochs", "2",
                 "--checkpoint-out", str(ft_ckpt)]) == 0
    assert out.read_text().startswith("epoch,loss_total")
    blob = read_header(ft_ckpt)
    assert blob["kind"] == "finetune"
    assert blob["extra"]["target"] == "lambda_2"


@pytest.fixture
def pre_and_ft_checkpoints(tmp_path):
    """A dataset with a target, a pretrain checkpoint and a finetune checkpoint
    fine-tuned from it."""
    data = tmp_path / "d.jsonl"
    assert main(["gen-data", "--count", "8", "--seed", "2", "--n-min", "6",
                 "--n-max", "10", "--output", str(data)]) == 0
    pre, ft = tmp_path / "pre.json", tmp_path / "ft.json"
    assert main(["--quiet", "pretrain", "--input", str(data), "--output",
                 str(tmp_path / "pre.csv"), "--config", small_config(tmp_path, k=3),
                 "--checkpoint-out", str(pre)]) == 0
    assert main(["--quiet", "finetune", "--input", str(data), "--checkpoint", str(pre),
                 "--output", str(tmp_path / "ft.csv"), "--epochs", "1",
                 "--checkpoint-out", str(ft)]) == 0
    return data, pre, ft


@pytest.mark.parametrize("command, last", [(["pretrain", "--epochs", "4", "--resume"], 3),
                                           (["finetune", "--epochs", "2", "--checkpoint"], 1)])
def test_a_run_whose_last_epoch_trained_nothing_exits_1_naming_it(tmp_path, capsys, command,
                                                                   last, pre_and_ft_checkpoints):
    # One NaN weight (a checkpoint may hold any float64) makes every batch fault,
    # so no epoch commits a batch: the run must not pass for a perfect fit.
    data, pre, _ = pre_and_ft_checkpoints
    model, cfg, state, d_in, _, _ = tr.load_checkpoint(str(pre))
    name = next(n for n in model.parameters() if n.startswith("encoder."))
    model.parameters()[name].values.flat[0] = np.nan
    poisoned = tmp_path / "nan.json"
    tr.save_checkpoint(str(poisoned), model, cfg, state, d_in)
    capsys.readouterr()
    out, ckpt = tmp_path / "out.csv", tmp_path / "out.json"
    code = main(["--quiet", command[0], "--input", str(data), "--output", str(out),
                 "--checkpoint-out", str(ckpt), *command[1:], str(poisoned)])
    assert code == 1
    assert capsys.readouterr().err == (f"error: epoch {last} committed no batch: every batch "
                                       "of it was skipped (4 skipped in the run)\n")
    assert not out.exists() and not ckpt.exists()


def test_an_overflowing_run_exits_1_in_one_line_under_an_error_filter_for_warnings(
        tmp_path, small_dataset, capsys):
    # pytest turns every warning into an error (pyproject's filterwarnings):
    # an lr of 1e308 overflows the parameters, and each batch must then be
    # skipped as a NumericalFault, not end the run with numpy's RuntimeWarning
    capsys.readouterr()
    out = tmp_path / "run.csv"
    code = main(["--quiet", "pretrain", "--epochs", "2", "--input", small_dataset,
                 "--config", small_config(tmp_path, lr=1e308), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) <= 1 and "Traceback" not in err
    assert err.startswith("error: epoch 1 committed no batch") and not out.exists()


def test_each_command_logs_its_environment_in_one_line_unless_quiet(tmp_path):
    src = Path(__file__).parent.parent / "src"
    lines = []
    for quiet in ([], ["--quiet"]):
        child = subprocess.run(
            [sys.executable, "-m", "eigenlearn.cli", *quiet, "gen-data", "--count", "2",
             "--output", str(tmp_path / "d.jsonl")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert child.returncode == 0, child.stderr
        lines.append(child.stderr.splitlines())
    assert re.fullmatch(r"INFO eigenlearn: numpy \S+, BLAS .+, BLAS threads (\d+|unknown), "
                        r"usable CPUs \d+", lines[0][0])
    assert lines[0][1].startswith("INFO eigenlearn: wrote 2 graphs")
    assert lines[1] == []


def test_pretrain_and_spectrum_give_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # every command computes at one BLAS thread: a head_hidden_dim 600 run,
    # whose head products BLAS would thread, and spectra of the same graphs
    # are byte-identical whatever the machine's default BLAS thread count
    if optim._openblas() is None:
        pytest.skip("the BLAS thread count of this numpy cannot be set")
    src = Path(__file__).parent.parent / "src"
    data = write_dataset(tmp_path / "graphs.jsonl", random_graph_soup(24, seed=11, n_low=10,
                                                                       n_high=30))
    config = small_config(tmp_path, k=3, epochs=2, batch_size=8, max_nodes=30, dropout=0.1,
                          hidden_dim=60, mp_layers=4, update_layers=3, head_layers=5,
                          head_hidden_dim=600, lr=0.001, feature_config={})
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / threads
        run.mkdir()
        for argv in (["pretrain", "--input", data, "--config", config, "--output",
                      str(run / "record.csv"), "--checkpoint-out", str(run / "run.ckpt")],
                     ["spectrum", "--input", data, "--output", str(run / "spectra.jsonl")]):
            child = subprocess.run(
                [sys.executable, "-m", "eigenlearn.cli", "--quiet", *argv],
                env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, child.stderr
        outputs.append([strip_seconds((run / "record.csv").read_text()),
                        (run / "run.ckpt").read_bytes(), (run / "spectra.jsonl").read_bytes()])
    assert len(outputs[0][0]) == 3 and outputs[0] == outputs[1]


def test_pretrain_resume_rejects_a_finetune_checkpoint(tmp_path, capsys, pre_and_ft_checkpoints):
    data, _, ft = pre_and_ft_checkpoints
    capsys.readouterr()
    out = tmp_path / "resumed.csv"
    code = main(["--quiet", "pretrain", "--input", str(data), "--output", str(out),
                 "--resume", str(ft), "--epochs", "4"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "finetune checkpoint" in err
    assert not out.exists()


def test_finetune_rejects_a_finetune_checkpoint(tmp_path, capsys, pre_and_ft_checkpoints):
    data, _, ft = pre_and_ft_checkpoints
    capsys.readouterr()
    out = tmp_path / "again.csv"
    code = main(["--quiet", "finetune", "--input", str(data), "--checkpoint", str(ft),
                 "--output", str(out), "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "finetune checkpoint" in err and "pretrain checkpoint" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["pretrain", "--epochs", "4", "--resume"],
                                     ["finetune", "--epochs", "1", "--checkpoint"]])
def test_a_version_1_checkpoint_exits_1(tmp_path, capsys, pre_and_ft_checkpoints, command):
    data, pre, _ = pre_and_ft_checkpoints
    old = tmp_path / "v1.json"
    old.write_text(as_old_version(pre.read_bytes(), 1))
    capsys.readouterr()
    out = tmp_path / "out.csv"
    code = main(["--quiet", command[0], "--input", str(data), "--output", str(out),
                 *command[1:], str(old)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "version 1 checkpoint" in err
    assert not out.exists()


def test_finetune_missing_target_exit_1(tmp_path, small_dataset, capsys):
    cfg = small_config(tmp_path)
    ckpt = tmp_path / "pre.json"
    assert main(["--quiet", "pretrain", "--input", small_dataset, "--output",
                 str(tmp_path / "pre.csv"), "--config", cfg,
                 "--checkpoint-out", str(ckpt)]) == 0
    code = main(["--quiet", "finetune", "--input", small_dataset,
                 "--checkpoint", str(ckpt), "--output", str(tmp_path / "ft.csv"),
                 "--target", "absent", "--epochs", "1"])
    assert code == 1
    assert "absent" in capsys.readouterr().err


def test_compare_losses_csv(tmp_path, small_dataset):
    cfg = small_config(tmp_path)
    out = tmp_path / "cmp.csv"
    assert main(["--quiet", "compare-losses", "--input", small_dataset,
                 "--output", str(out), "--config", cfg, "--epochs", "2"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "arm,epoch,loss_eigvec,loss_energy"
    arms = {line.split(",")[0] for line in lines[1:]}
    assert arms == {"eigvec_ours", "abs_cos_mae", "random_orthogonal"}
    # byte-identical on rerun (no timestamps in this format)
    out2 = tmp_path / "cmp2.csv"
    assert main(["--quiet", "compare-losses", "--input", small_dataset,
                 "--output", str(out2), "--config", cfg, "--epochs", "2"]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_compare_losses_zero_epochs_writes_the_header_only(tmp_path, small_dataset):
    out = tmp_path / "cmp.csv"
    assert main(["--quiet", "compare-losses", "--input", small_dataset, "--output", str(out),
                 "--config", small_config(tmp_path), "--epochs", "0"]) == 0
    assert out.read_text() == "arm,epoch,loss_eigvec,loss_energy\n"


def test_check_invariants_passes_and_writes_summary(tmp_path, capsys):
    out = tmp_path / "summary.jsonl"
    code = main(["check-invariants", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    assert "FAIL" not in captured.out
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["passed"] for r in records)
    assert len(records) >= 10


# --- every file a subcommand reads fails in one line ---------------------------


class Inputs(SimpleNamespace):
    """The inputs fixture, whose repr leaves out the files' texts: Hypothesis
    reprs the arguments of a failing example, and a checkpoint's bytes made
    that repr too large to report."""

    def __repr__(self) -> str:
        return f"Inputs(paths={self.paths!r})"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid input files of every role, written once: a dataset with targets
    (and its first graph alone), a config file, a feature config file and a
    pretrain checkpoint trained on them; `paths` by placeholder, `texts` by
    role (a checkpoint's as bytes)."""
    root = tmp_path_factory.mktemp("inputs")
    data, one_graph, checkpoint = root / "d.jsonl", root / "d1.jsonl", root / "pre.ckpt"
    assert main(["gen-data", "--count", "8", "--seed", "2", "--n-min", "6",
                 "--n-max", "10", "--output", str(data)]) == 0
    save_dataset(str(one_graph), load_dataset(str(data))[:1])
    config = small_config(root, k=3, scheduler={"kind": "reduce_on_plateau"})
    features = root / "fcfg.json"
    features.write_text(json.dumps({"scales_J": 1}))
    assert main(["--quiet", "pretrain", "--input", str(data), "--output", str(root / "pre.csv"),
                 "--config", config, "--checkpoint-out", str(checkpoint)]) == 0
    files = {"dataset": data, "config": config, "feature config": features,
             "checkpoint": checkpoint}
    return Inputs(paths={"data": data, "one_graph": one_graph, "config": config,
                         "checkpoint": checkpoint},
                  texts={role: Path(path).read_bytes() if role == "checkpoint"
                         else Path(path).read_text() for role, path in files.items()})


# (the role of the file {bad}, the arguments): each subcommand with each file it reads
COMMANDS = [
    ("checkpoint", "pretrain --input {data} --output {out} --epochs 4 --resume {bad} "
                   "--checkpoint-out {out}.ckpt"),
    ("checkpoint", "finetune --input {data} --output {out} --epochs 1 --checkpoint {bad} "
                   "--checkpoint-out {out}.ckpt"),
    ("dataset", "features --input {bad} --output {out}"),
    ("feature config", "features --input {data} --output {out} --config {bad}"),
    ("dataset", "spectrum --input {bad} --output {out}"),
    ("dataset", "pretrain --input {bad} --output {out} --config {config} "
                "--checkpoint-out {out}.ckpt"),
    ("config", "pretrain --input {data} --output {out} --config {bad} --checkpoint-out {out}.ckpt"),
    ("dataset", "finetune --input {bad} --output {out} --epochs 1 --checkpoint {checkpoint} "
                "--checkpoint-out {out}.ckpt"),
    ("dataset", "compare-losses --input {bad} --output {out} --config {config}"),
    ("config", "compare-losses --input {data} --output {out} --config {bad}"),
]
DIRECTORY = object()  # a directory in place of the file


def _edited(text, edit):
    """text with edit applied to its JSON object; a checkpoint's (bytes) is
    its header line, and its body stays as it is."""
    if isinstance(text, bytes):
        return edit_header(text, edit)
    blob = json.loads(text)
    edit(blob)
    return json.dumps(blob)


def _with(text, **fields):
    return _edited(text, lambda blob: blob.update(fields))


def _with_in(text, key, **fields):
    return _edited(text, lambda blob: blob[key].update(fields))


def _with_arrays(text, change):
    """A checkpoint with change applied to its header's `arrays` list."""
    return _edited(text, lambda blob: change(blob["arrays"]))


def _utf8(text):
    return text if isinstance(text, bytes) else text.encode()


# Each maps a corruption to the bad file made from the good file's text (a
# checkpoint's bytes).
CORRUPT_FILES = {
    "empty": lambda text: "",
    "not_json": lambda text: "this is not JSON\n",
    "not_utf8": lambda text: _utf8(text)[:9] + b"\xff" + _utf8(text)[9:],
    "directory": lambda text: DIRECTORY,
}
CORRUPT_CHECKPOINTS = {
    **CORRUPT_FILES,
    "truncated": lambda text: text[:text.index(b'"config"') + 4],
    "top_level_array": lambda text: "[]",
    "no_config": lambda text: _edited(text, lambda blob: blob.pop("config")),
    "body_one_byte_short": lambda text: text[:-1],
    "trailing_bytes": lambda text: text + b"\0",
    "header_not_json": lambda text: b"{not JSON" + text[text.index(b"\n"):],
    "header_not_utf8": lambda text: text.replace(b"-checkpoint", b"-\xffcheckpoint", 1),
    "arrays_wrong_shape": lambda text: _with_arrays(text, lambda arrays: arrays[1][1].append(1)),
    "arrays_missing_entry": lambda text: _with_arrays(text, lambda arrays: arrays.pop()),
    "arrays_extra_entry": lambda text: _with_arrays(text, lambda arrays: arrays.append(["x", []])),
    "version_2": lambda text: as_old_version(text, 2),
    "d_in_not_an_int": lambda text: _with(text, d_in="x"),
    "d_in_zero": lambda text: _with(text, d_in=0),
    "lr_not_a_number": lambda text: _with_in(text, "optimizer", lr="x"),
    "lr_inf": lambda text: _with_in(text, "optimizer", lr=float("inf")),
    "lr_negative": lambda text: _with_in(text, "optimizer", lr=-1.0),
    "beta1_not_the_codes": lambda text: _with_in(text, "optimizer", beta1=1.0),
    "eps_nan": lambda text: _with_in(text, "optimizer", eps=float("nan")),
    "t_not_an_int": lambda text: _with_in(text, "optimizer", t=1.5),
    "scheduler_not_an_object": lambda text: _with(text, scheduler=5),
    "patience_not_the_configs": lambda text: _with_in(text, "scheduler", patience=1),
    "factor_not_the_configs": lambda text: _with_in(text, "scheduler", factor=5.0),
    "rng_state_not_an_object": lambda text: _with(text, rng_state=5),
    "config_batch_size_zero": lambda text: _with_in(text, "config", batch_size=0),
    "config_too_large_for_memory": lambda text: _with_in(text, "config", head_hidden_dim=10 ** 12),
}
CORRUPT_DATASETS = {
    **CORRUPT_FILES,
    "record_array": lambda text: text + "[1, 2]\n",
    "record_unknown_field": lambda text: text + '{"num_nodes": 2, "nodes": 2}\n',
    "no_num_nodes": lambda text: text + '{"edges": []}\n',
    "num_nodes_not_an_int": lambda text: text + '{"num_nodes": "3"}\n',
    "num_nodes_zero": lambda text: text + '{"num_nodes": 0}\n',
    "target_not_a_number": lambda text: text + '{"num_nodes": 2, "targets": {"y": "x"}}\n',
    "target_nan": lambda text: text + '{"num_nodes": 2, "targets": {"y": NaN}}\n',
    "features_inf": lambda text: text + '{"num_nodes": 2, "node_features": [[Infinity], [0]]}\n',
    "edge_float_endpoint": lambda text: text + '{"num_nodes": 3, "edges": [[0.9, 1], [1, 2]]}\n',
    "edge_bool_endpoint": lambda text: text + '{"num_nodes": 3, "edges": [[true, 2]]}\n',
    "edge_an_int": lambda text: text + '{"num_nodes": 3, "edges": [5]}\n',
    "edge_null": lambda text: text + '{"num_nodes": 3, "edges": [[0, 1], null]}\n',
    "edge_of_three": lambda text: text + '{"num_nodes": 3, "edges": [[0, 1, 2]]}\n',
}
# a config has no field to be missing: every field has a default
CORRUPT_CONFIGS = {
    **CORRUPT_FILES,
    "config_array": lambda text: "[]",
    "unknown_field": lambda text: _with(text, learning_rate=0.1),
    "k_not_an_int": lambda text: _with(text, k="x"),
    "lr_nan": lambda text: _with(text, lr=float("nan")),
    "lr_inf": lambda text: _with(text, lr=float("inf")),
    "lr_zero": lambda text: _with(text, lr=0),
    "batch_size_zero": lambda text: _with(text, batch_size=0),
    "hidden_dim_zero": lambda text: _with(text, hidden_dim=0),
    "mp_layers_zero": lambda text: _with(text, mp_layers=0),
    "seed_negative": lambda text: _with(text, seed=-1),
    "dropout_one": lambda text: _with(text, dropout=1.0),
    "patience_zero": lambda text: _with(text, scheduler={"patience": 0}),
    "too_large_for_memory": lambda text: _with(text, head_kind="node_wise", max_nodes=200000,
                                               hidden_dim=8, head_hidden_dim=8),
}
CORRUPT_FEATURE_CONFIGS = {
    **CORRUPT_FILES,
    "config_array": lambda text: "[]",
    "unknown_field": lambda text: _with(text, scales=1),
    "scales_J_not_an_int": lambda text: _with(text, scales_J="x"),
    "scales_J_nan": lambda text: _with(text, scales_J=float("nan")),
    "scales_J_negative": lambda text: _with(text, scales_J=-1),
    "dirac_seed_negative": lambda text: _with(text, dirac_seed=-1),
}
CORRUPTIONS = {"checkpoint": CORRUPT_CHECKPOINTS, "dataset": CORRUPT_DATASETS,
               "config": CORRUPT_CONFIGS, "feature config": CORRUPT_FEATURE_CONFIGS}
# the field each diagnostic must name
NAMED_IN_ERROR = {
    "no_config": "'config'", "d_in_not_an_int": "checkpoint.d_in",
    "d_in_zero": "checkpoint.d_in", "lr_not_a_number": "checkpoint.optimizer.lr",
    "lr_negative": "checkpoint.optimizer.lr", "beta1_not_the_codes": "checkpoint.optimizer.beta1",
    "eps_nan": "checkpoint.optimizer.eps", "t_not_an_int": "checkpoint.optimizer.t",
    "scheduler_not_an_object": "checkpoint.scheduler",
    "patience_not_the_configs": "checkpoint.scheduler.patience",
    "factor_not_the_configs": "checkpoint.scheduler.factor",
    "rng_state_not_an_object": "checkpoint.rng_state",
    "config_batch_size_zero": "checkpoint.config.batch_size",
    "config_too_large_for_memory": ": the model of this config has ",
    "too_large_for_memory": ": the model of this config has ",
    "arrays_wrong_shape": "checkpoint.arrays[1]", "arrays_missing_entry": "checkpoint.arrays[",
    "arrays_extra_entry": "checkpoint.arrays[", "version_2": "version 2 checkpoint",
    "body_one_byte_short": "the body ends after", "trailing_bytes": "the body goes on past",
    "header_not_json": "the header is not UTF-8 JSON",
    "header_not_utf8": "the header is not UTF-8 JSON",
    "no_num_nodes": "'num_nodes'", "num_nodes_not_an_int": "record.num_nodes",
    "num_nodes_zero": "record.num_nodes", "target_not_a_number": "record.targets",
    "record_unknown_field": "'nodes'",
    "target_nan": "record.targets", "features_inf": "node_features",
    "edge_float_endpoint": "edge (0.9, 1)", "edge_bool_endpoint": "edge (True, 2)",
    "edge_an_int": ": edge 5 is not a pair", "edge_null": ": edge None is not a pair",
    "edge_of_three": ": edge (0, 1, 2) is not a pair",
    "unknown_field": "unknown fields", "k_not_an_int": "config.k", "lr_nan": "config.lr",
    "lr_zero": "config.lr", "batch_size_zero": "config.batch_size",
    "hidden_dim_zero": "config.hidden_dim", "mp_layers_zero": "config.mp_layers",
    "seed_negative": "config.seed", "dropout_one": "config.dropout",
    "patience_zero": "config.scheduler.patience", "scales_J_not_an_int": "config.scales_J",
    "scales_J_nan": "config.scales_J", "scales_J_negative": "config.scales_J",
    "dirac_seed_negative": "config.dirac_seed",
}


def assert_rejected_in_one_line(inputs, tmp_path, capsys, command, content, field=None):
    """The command, with content as its file {bad}, exits 1 with one stderr
    line that names the file (and the field), and writes no output file."""
    bad, out = tmp_path / "bad", tmp_path / "out"
    if content is DIRECTORY:
        bad.mkdir()
    else:
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    out.mkdir(exist_ok=True)
    argv = [arg.format(bad=bad, out=out / "result", **inputs.paths)
            for arg in COMMANDS[command][1].split()]
    capsys.readouterr()
    assert main(["--quiet", *argv]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert str(bad) in err
    if field is not None:
        assert field in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("command, corrupt", [
    (i, name) for i, (role, _) in enumerate(COMMANDS) for name in sorted(CORRUPTIONS[role])],
    ids=lambda value: f"command{value}" if isinstance(value, int) else value)
def test_a_corrupt_checkpoint_exits_1_with_one_line(inputs, tmp_path, capsys, command, corrupt):
    """Every file a subcommand reads, corrupted in each way its role allows,
    fails in one line. (The table began with checkpoints alone; the name stays
    so that their cases keep their ids.)"""
    role = COMMANDS[command][0]
    content = CORRUPTIONS[role][corrupt](inputs.texts[role])
    assert_rejected_in_one_line(inputs, tmp_path, capsys, command, content,
                                NAMED_IN_ERROR.get(corrupt))


@pytest.mark.parametrize("command", range(len(COMMANDS)), ids=lambda i: f"command{i}")
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_truncated_input_exits_1_with_one_line(inputs, tmp_path, capsys, command, data):
    # Any proper prefix of a JSON object is not JSON, and a checkpoint cut in
    # its body is short of its arrays; a dataset is cut inside a record, since
    # a cut at the end of a line leaves a shorter dataset.
    role = COMMANDS[command][0]
    text = inputs.texts[role]
    cuts = [p for p in range(len(text))
            if role != "dataset" or 0 < p and "\n" not in (text[p - 1], text[p])]
    cut = data.draw(st.sampled_from(cuts), label="cut")
    assert_rejected_in_one_line(inputs, tmp_path, capsys, command, text[:cut])


@pytest.mark.parametrize("argv, field", [
    ("pretrain --input {data} --config {config} --seed -1", "PretrainConfig.seed"),
    ("pretrain --input {data} --config {config} --k 0", "PretrainConfig.k"),
    ("compare-losses --input {data} --config {config} --epochs -1", "PretrainConfig.epochs"),
    ("finetune --input {data} --checkpoint {checkpoint} --seed -1", "PretrainConfig.seed"),
    ("finetune --input {data} --checkpoint {checkpoint} --epochs -2",
     "PretrainConfig.finetune_epochs"),
    ("features --input {data} --seed -1", "FeatureConfig.dirac_seed"),
    ("finetune --input {data} --checkpoint {checkpoint} --val-fraction 1.0", "--val-fraction"),
    ("finetune --input {data} --checkpoint {checkpoint} --val-fraction 1.5", "--val-fraction"),
    ("finetune --input {data} --checkpoint {checkpoint} --val-fraction -0.5", "--val-fraction"),
    ("finetune --input {one_graph} --checkpoint {checkpoint}", "no training graph"),
    ("gen-data --n-min 10 --n-max 5", "--n-min"),
    ("gen-data --count 0", "--count"),
    ("gen-data --count -3", "--count"),
    ("gen-data --seed -1", "--seed"),
    ("gen-data --count 3 --kinds path,star --n-min 1 --n-max 1", "--n-min"),
    # refused before anything is generated, by the bound build_adjacency keeps
    ("gen-data --count 1 --n-max 1000000000000", "--n-max 1000000000000"),
])
def test_an_out_of_range_flag_exits_1_with_one_line(inputs, tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--quiet", *[arg.format(**inputs.paths) for arg in argv.split()],
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "features"])
@pytest.mark.parametrize("record", ['{"num_nodes": 1000000000000}',
                                    '{"num_nodes": 3000000, "edges": [[0, 1]]}'],
                         ids=["no_edges", "one_edge"])
def test_a_graph_too_big_for_a_dense_adjacency_exits_1_naming_its_line(
        tmp_path, p3_dataset, capsys, command, record):
    # each once died in build_adjacency with a traceback: numpy's "array is
    # too big" or an allocation of tens of TiB
    data, out = tmp_path / "big.jsonl", tmp_path / "out.jsonl"
    data.write_text(Path(p3_dataset).read_text() + record + "\n")
    capsys.readouterr()
    assert main(["--quiet", command, "--input", str(data), "--output", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: {data}, line 2: a graph of ") and "memory" in err
    assert not out.exists()


# --- one mutated int field keeps the one-line contract -------------------------

# For what is mutated, the (role of the file {bad}, arguments) that read it:
# configs of both head kinds, and each command that reads a checkpoint.
FUZZED = {
    "record": [("dataset", "spectrum --input {bad} --output {out}"),
               ("dataset", "features --input {bad} --output {out}"),
               ("dataset", "pretrain --input {bad} --output {out} --config {config}")],
    "config": [("config", "pretrain --input {data} --output {out} --config {bad}"),
               ("node-wise config", "compare-losses --input {data} --output {out} --config {bad}"),
               ("node-wise config", "pretrain --input {data} --output {out} --config {bad}"),
               ("config", "compare-losses --input {data} --output {out} --config {bad}")],
    "checkpoint header": [
        ("checkpoint", "pretrain --input {data} --output {out} --epochs 3 --resume {bad} "
                       "--checkpoint-out {out}.ckpt"),
        ("checkpoint", "finetune --input {data} --output {out} --epochs 1 --checkpoint {bad} "
                       "--checkpoint-out {out}.ckpt")],
}
# A budget of 10**12 epochs is valid, and only takes long, so no budget is mutated.
BUDGETS = ("epochs", "finetune_epochs")
INTS = st.sampled_from([0, -1, 10 ** 12, 10 ** 400]) | st.integers(-2, 40)


def _int_fields(blob, path=()):
    """The path of each int field of a JSON object and of the objects in it,
    other than a budget (a bool is no int)."""
    for key, value in blob.items():
        if type(value) is dict:
            yield from _int_fields(value, path + (key,))
        elif type(value) is int and key not in BUDGETS:
            yield path + (key,)


def _mutate(blob, choice):
    fields = list(_int_fields(blob))
    path = fields[choice.field % len(fields)]
    for key in path[:-1]:
        blob = blob[key]
    blob[path[-1]] = choice.value


def _mutated(text, choice):
    """text with one int field set to the chosen value: in a chosen record of a
    dataset, in a config, or in a checkpoint's header (its body kept)."""
    if isinstance(text, bytes):
        return edit_header(text, lambda header: _mutate(header, choice))
    lines = text.splitlines()
    i = choice.line % len(lines)
    blob = json.loads(lines[i])
    _mutate(blob, choice)
    lines[i] = json.dumps(blob)
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("mutated", FUZZED)
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choice=st.builds(SimpleNamespace, command=st.integers(0, 99), line=st.integers(0, 99),
                        field=st.integers(0, 99), value=INTS))
def test_one_int_field_mutated_exits_0_1_or_2_with_at_most_one_line(inputs, tmp_path, capsys,
                                                                     mutated, choice):
    commands = FUZZED[mutated]
    role, args = commands[choice.command % len(commands)]
    texts = dict(inputs.texts, **{"node-wise config": _with(inputs.texts["config"],
                                                            head_kind="node_wise")})
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    bad, out = work / "bad", work / "out"
    bad.write_bytes(_utf8(_mutated(texts[role], choice)))
    out.mkdir()
    argv = [arg.format(bad=bad, out=out / "result", **inputs.paths) for arg in args.split()]
    capsys.readouterr()
    try:
        code = main(["--quiet", *argv])
    except SystemExit as exc:  # a usage error
        code = exc.code
    err = capsys.readouterr().err.strip()
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code != 1 or len(err.splitlines()) <= 1
    assert not [name for name in os.listdir(out) if name.startswith(".tmp-")]


# --- one mutated float field keeps the one-line contract -----------------------

# The float fields of a config, each as its path, set whether or not the file
# names it (the loss weights are left at their defaults there).
FLOAT_FIELDS = [("lr",), ("dropout",), ("scheduler", "factor"), ("loss_weights", "alpha_energy"),
                ("loss_weights", "beta_eigvec"), ("loss_weights", "gamma_ortho")]
FLOATS = st.sampled_from([1e308, 5e-324, 1 - 2 ** -53, -0.0, 0.0, 1.0, -1.0, 1e-300]) \
    | st.floats(-2.0, 2.0)
FLOAT_CHOICES = st.builds(SimpleNamespace, node_wise=st.booleans(),
                          field=st.sampled_from(FLOAT_FIELDS), value=FLOATS)


def _float_mutated(inputs, tmp_path, choice) -> Path:
    """A fresh directory holding bad.json: the inputs' config with the chosen
    float field set to the chosen value (and a node-wise head, if chosen)."""
    blob = json.loads(inputs.texts["config"])
    if choice.node_wise:
        blob["head_kind"] = "node_wise"
    *parents, name = choice.field
    target = blob
    for key in parents:
        target = target.setdefault(key, {})
    target[name] = choice.value
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "bad.json").write_text(json.dumps(blob))
    return work


def _exits_in_one_line(capsys, argv: list, outputs: list) -> int:
    """main's exit code for argv, after checking that it is 0 or 1, that it
    printed one line to stderr on exit 1 and none on exit 0, with no
    traceback, and that exit 1 left none of outputs behind."""
    capsys.readouterr()
    code = main(["--quiet", *argv])
    err = capsys.readouterr().err.strip()
    assert code in (0, 1) and "Traceback" not in err
    assert len(err.splitlines()) == (code == 1), err
    assert code == 0 or not [path for path in outputs if path.exists()]
    return code


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choice=FLOAT_CHOICES)
def test_one_float_field_mutated_exits_0_only_when_the_last_epoch_trained(inputs, tmp_path,
                                                                          capsys, choice):
    work = _float_mutated(inputs, tmp_path, choice)
    bad, out = work / "bad.json", work / "record.csv"
    argv = ["pretrain", "--input", str(inputs.paths["data"]), "--output", str(out),
            "--config", str(bad)]
    if _exits_in_one_line(capsys, argv, [out]) == 0:
        # the last epoch committed a batch, so its loss is no NaN
        last = out.read_text().splitlines()[-1].split(",")
        assert not math.isnan(float(last[1]))


@pytest.mark.parametrize("command", ["compare-losses", "finetune"])
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choice=FLOAT_CHOICES)
def test_one_float_field_mutated_fails_compare_losses_and_finetune_in_one_line(
        inputs, tmp_path, capsys, command, choice):
    # a fault in an evaluation run outside the epoch loop (compare-losses'
    # per-epoch one, finetune's held-out one) is one line, with no numpy
    # warning before it, and finetune writes nothing before it has evaluated
    work = _float_mutated(inputs, tmp_path, choice)
    bad, out, checkpoint = work / "bad.json", work / "out", work / "out.ckpt"
    data = str(inputs.paths["data"])
    if command == "compare-losses":
        _exits_in_one_line(capsys, ["compare-losses", "--input", data, "--output", str(out),
                                    "--config", str(bad)], [out])
        return
    # finetune starts from a checkpoint whose config holds the mutated value
    pretrained = work / "pre.ckpt"
    if _exits_in_one_line(capsys, ["pretrain", "--input", data, "--output", str(work / "pre.csv"),
                                   "--config", str(bad), "--epochs", "0",
                                   "--checkpoint-out", str(pretrained)], [pretrained]) == 0:
        _exits_in_one_line(capsys, ["finetune", "--input", data, "--output", str(out),
                                    "--epochs", "1", "--checkpoint", str(pretrained),
                                    "--checkpoint-out", str(checkpoint)], [out, checkpoint])
