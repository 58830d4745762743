import ast
import dataclasses
import json
import os
from pathlib import Path
from typing import Annotated

import numpy as np
import pytest

from eigenlearn.data import (BOOL, FINITE, FINITE_MAP, FINITE_OR_NULL, FRACTION, LIST,
                             NON_NEGATIVE, NON_NEGATIVE_INT, OBJECT, OBJECT_OR_NULL, POSITIVE,
                             POSITIVE_INT, atomic_write_text, check_fields, config, dumps_graph,
                             load_dataset, one_of, save_dataset)
from eigenlearn.errors import DatasetFormatError, InvalidParams
from eigenlearn.graphs import Graph, generate_graph
from helpers import UNWRITABLE, unwritable


def test_roundtrip_preserves_everything(tmp_path):
    graphs = [
        Graph(3, ((0, 1), (1, 2)), node_features=np.array([[1.5, 2.0]] * 3),
              graph_targets={"lambda_2": 1.0}),
        generate_graph("complete", {"n": 4}),
    ]
    path = tmp_path / "data.jsonl"
    save_dataset(str(path), graphs)
    loaded = load_dataset(str(path))
    assert len(loaded) == 2
    assert loaded[0].edges == graphs[0].edges
    assert np.array_equal(loaded[0].node_features, graphs[0].node_features)
    assert loaded[0].graph_targets == {"lambda_2": 1.0}
    assert loaded[1].node_features is None
    assert loaded[1].edges == graphs[1].edges


def test_record_is_single_line_json():
    line = dumps_graph(generate_graph("path", {"n": 3}))
    assert "\n" not in line
    rec = json.loads(line)
    assert rec == {"num_nodes": 3, "edges": [[0, 1], [1, 2]]}


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"num_nodes": 2, "edges": []}\nnot json\n')
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(str(path))
    assert exc.value.line_number == 2
    assert "line 2" in str(exc.value)


def test_invalid_graph_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"num_nodes": 2, "edges": [[0, 5]]}\n')
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(str(path))
    assert exc.value.line_number == 1


def test_missing_num_nodes_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"edges": []}\n')
    with pytest.raises(DatasetFormatError):
        load_dataset(str(path))


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"num_nodes": 1, "edges": []}\n\n{"num_nodes": 2, "edges": [[0,1]]}\n')
    assert len(load_dataset(str(path))) == 2


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [f for f in os.listdir(tmp_path) if f != "out.txt"]
    assert leftovers == []


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(str(target), "new")
    assert target.read_text() == "new"


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_open_would(tmp_path, umask):
    new, replaced = tmp_path / "new.txt", tmp_path / "replaced.txt"
    replaced.write_text("old")
    replaced.chmod(0o640)
    old = os.umask(umask)
    try:
        atomic_write_text(str(new), "payload")
        atomic_write_text(str(replaced), "payload")
    finally:
        os.umask(old)
    for path in (new, replaced):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_atomic_write_never_sets_the_umask(tmp_path, monkeypatch):
    # setting it, even for a moment, would leave a file that another thread
    # creates then unmasked
    calls = []
    monkeypatch.setattr(os, "umask", lambda *args: calls.append(args) or 0)
    new, replaced = tmp_path / "new.txt", tmp_path / "replaced.txt"
    replaced.write_text("old")
    atomic_write_text(str(new), "payload")
    atomic_write_text(str(replaced), "payload")
    assert calls == []
    assert new.read_text() == replaced.read_text() == "payload"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.txt", "replaced.txt"]


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_a_failed_write_names_the_output_and_leaves_no_temp_file(tmp_path, case):
    path = unwritable(tmp_path, case)
    with pytest.raises(InvalidParams) as exc:
        atomic_write_text(str(path), "payload\n")
    assert str(exc.value) == f"{path}: cannot write the file ({UNWRITABLE[case]})"
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "a_dir", "a_file"]
    assert (tmp_path / "a_file").read_text() == "kept"


def test_feature_floats_roundtrip_exactly(tmp_path):
    x = np.array([[1.0 / 3.0, np.pi], [1e-300, -2.5e17]])
    g = Graph(2, ((0, 1),), node_features=x)
    path = tmp_path / "data.jsonl"
    save_dataset(str(path), [g])
    loaded = load_dataset(str(path))
    assert np.array_equal(loaded[0].node_features, x)


def test_lines_ending_in_crlf_load_as_lf(tmp_path):
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    save_dataset(str(lf), [generate_graph("path", {"n": 3}), generate_graph("cycle", {"n": 4})])
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert load_dataset(str(crlf)) == load_dataset(str(lf))


@pytest.mark.parametrize("content, line, message", [
    (b'{"num_nodes": 1}\n{"num_nodes": 2, "edges": [[0, 1]]}\xff\n', 2, "not UTF-8 text"),
    (b'{"num_nodes": 1}\n\n{"num_nodes": 0}\n', 3, r"record\.num_nodes must be >= 1, got 0$"),
    (b'{"num_nodes": 2, "nodes": 2}\n', 1, r"record has unknown fields \['nodes'\]$"),
    (b'{"num_nodes": 2, "targets": null}\n', 1, r"record\.targets must be an object, got None$"),
    (b'{"num_nodes": 2, "targets": {"y": 1e999}}\n', 1,
     r"record\.targets must be an object of finite numbers, got \{'y': inf\}$"),
    (b'\n\n', None, "holds no graph record$"),
])
def test_a_bad_dataset_names_its_file_and_line(tmp_path, content, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(content)
    with pytest.raises(DatasetFormatError, match=message) as exc:
        load_dataset(str(path))
    assert exc.value.line_number == line
    at = "" if line is None else f", line {line}"
    assert str(exc.value).startswith(f"{path}{at}: ")


@pytest.mark.parametrize("kind, good, bad", [
    (POSITIVE_INT, [1, 10**30], [0, -1, True, 1.0, "1", None]),
    (NON_NEGATIVE_INT, [0, 5], [-1, False, 0.0]),
    (FINITE, [0, -2.5, 10**300], [float("nan"), float("inf"), 10**400, True, "1", None]),
    (POSITIVE, [1e-300, 3], [0, -1.0, float("inf"), False]),
    (NON_NEGATIVE, [0, 2.5], [-1e-300, float("nan"), True]),
    (FRACTION, [0, 0.0, 0.5], [1, 1.0, -0.1, float("nan"), False]),
    (FINITE_OR_NULL, [None, 0.5], [float("nan"), "x", True]),
    (FINITE_MAP, [{}, {"a": 1, "b": -2.5}], [{"a": "x"}, {"a": float("nan")}, {"a": True}, []]),
    (BOOL, [True, False], [0, 1, "true", None]),
    (one_of("a", "b"), ["a", "b"], ["c", 1, None, ["a"]]),
    (OBJECT, [{}, {"x": 1}], [[], None, "{}"]),
    (OBJECT_OR_NULL, [None, {}], [[], 0]),
    (LIST, [[], [1]], [(), {}, None]),
])
def test_a_field_kind_takes_exactly_its_values(kind, good, bad):
    for value in good:
        assert check_fields({"f": value}, {"f": kind}, "x") == {"f": value}
    for value in bad:
        with pytest.raises(InvalidParams, match=r"^x\.f must be .+, got .+$"):
            check_fields({"f": value}, {"f": kind}, "x")


def test_check_fields_names_a_missing_unknown_or_nested_field():
    spec = {"a": POSITIVE_INT, "b": {"c": FINITE}}
    for obj, message in (
            ([], r"x must be an object, got \[\]"),
            ({"a": 1}, "x has no field 'b'"),
            ({"a": 1, "b": {"c": 1}, "d": 0}, r"x has unknown fields \['d'\]"),
            ({"a": 1, "b": {"c": float("nan")}}, "x.b.c must be finite, got nan"),
            ({"a": 1, "b": {}}, "x.b has no field 'c'")):
        with pytest.raises(InvalidParams, match=f"^{message}$"):
            check_fields(obj, spec, "x")
    assert check_fields({"b": {"c": 0}}, spec, "x", optional=("a",)) == {"b": {"c": 0}}


@config
class Part:
    n: Annotated[int, POSITIVE_INT] = 1


@dataclasses.dataclass(frozen=True)
class Plain:
    n: int = 1


@pytest.mark.parametrize("annotation", [int, Annotated[int, "an int"], Plain],
                         ids=["bare", "no-kind", "plain-dataclass"])
def test_a_config_field_declared_without_a_kind_fails_at_definition(annotation):
    with pytest.raises(TypeError, match=r"^Bad\.n is declared as .+, neither "):
        @config
        class Bad:
            n: annotation = annotation()


def test_a_config_class_is_a_kind_whose_value_is_an_instance():
    assert check_fields({"c": Part()}, {"c": Part}, "x") == {"c": Part()}
    for value in ({"n": 1}, Plain(), None):
        with pytest.raises(InvalidParams, match=r"^x\.c must be a Part, got .+$"):
            check_fields({"c": value}, {"c": Part}, "x")


# The calls that read a file's content, by the module that defines them.
_MODULE_READS = {"json": ("load", "loads"), "np": ("fromfile", "load", "memmap"),
                 "numpy": ("fromfile", "load", "memmap")}


def _reads(node) -> bool:
    """Whether an AST node reads a file or parses JSON: a _MODULE_READS call
    or its import, a method read_text, read_bytes or readinto, or an open
    without a write-only mode."""
    if isinstance(node, ast.ImportFrom):
        return any(a.name in _MODULE_READS.get(node.module, ()) for a in node.names)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id in _MODULE_READS:
        return name in _MODULE_READS[func.value.id]
    if name in ("read_text", "read_bytes", "readinto"):
        return True
    if name not in ("open", "fdopen"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    if not modes:
        return True  # the default mode reads
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("r+"))


@pytest.mark.parametrize("source, reads", [
    ("json.loads(text)", True), ("from json import load", True),
    ("np.fromfile(path)", True), ("numpy.load(path)", True), ("np.memmap(path)", True),
    ("from numpy import fromfile", True), ("fh.readinto(view)", True),
    ("Path(path).read_bytes()", True), ("Path(path).read_text()", True),
    ("open(path)", True), ("open(path, 'rb')", True), ("os.fdopen(fd, mode='r+b')", True),
    ("open(path, 'wb')", False), ("os.fdopen(fd, 'w')", False), ("np.save(path, a)", False),
    ("fh.write(view)", False), ("json.dumps(value)", False), ("from numpy import zeros", False),
])
def test_the_guard_flags_every_way_to_read_a_file(source, reads):
    assert any(_reads(node) for node in ast.walk(ast.parse(source))) is reads


def files_reading_input(package: Path) -> list[str]:
    return [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
            if path.name != "data.py" for node in ast.walk(ast.parse(path.read_text()))
            if _reads(node)]


def test_only_data_parses_json_or_opens_a_file_for_reading():
    # one input boundary: every other module reads through data.read_json or
    # data.read_header_and_arrays
    assert files_reading_input(Path(__file__).parent.parent / "src" / "eigenlearn") == []
