"""The input boundary, the config schema, and graph dataset files.

Every file eigenlearn reads goes through read_json (a checkpoint through
read_header_and_arrays) and check_fields. A config class (@config) declares
each field once, with its kind, and checks every instance however it is
built: in code, by dataclasses.replace, or from a dict by from_dict. A
dataset file has one graph per line, each line a JSON object:

    {"num_nodes": 3, "edges": [[0,1],[1,2]],
     "node_features": [[...], ...],        # optional, n rows
     "targets": {"lambda_2": 1.0}}          # optional

UTF-8, LF line endings. Output files are written atomically (temp file in the
same directory, then rename) so an interrupted run never leaves a partial file.
"""

import dataclasses
import json
import os
import sys
import tempfile
from collections.abc import Callable
from typing import Annotated, NamedTuple, get_origin

from .errors import DatasetFormatError, EigenlearnError, InvalidParams
from .graphs import Graph


def read_json(path: str, lines: bool = False):
    """The JSON value in the file at path; with lines=True, an iterator over the
    (1-based line number, value) of each non-blank line. A missing file raises
    FileNotFoundError; any other failure to read or parse it, one line naming
    it: InvalidParams, or with lines=True DatasetFormatError (and the line)."""
    def fail(reason: str, line: int | None = None) -> EigenlearnError:
        return (DatasetFormatError(path, line, reason) if lines
                else InvalidParams(f"{path}: {reason}"))

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise fail(f"cannot read the file ({exc.strerror})") from None
    except UnicodeDecodeError as exc:  # the whole file's bytes, decoded at once
        raise fail(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                   exc.object.count(b"\n", 0, exc.start) + 1) from None
    if not lines:
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise fail(f"invalid JSON: {exc}") from None

    def records():  # parsed as they are reached: one parsed record alive at a time
        for number, line in enumerate(text.split("\n"), start=1):
            if line.strip():
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise fail(f"invalid JSON: {exc.msg}", number) from None
                yield number, value
    return records()


def read_header_and_arrays(path: str, arrays_of: Callable[[object], tuple[object, list]]):
    """Read a file of one UTF-8 JSON header line, then the bytes of arrays:
    arrays_of(header) checks the header and returns (result, arrays); each
    array is read straight into its C-contiguous memory, and the file must end
    after the last. Returns result. A missing file raises FileNotFoundError;
    any other misfit, one InvalidParams line naming the file."""
    try:
        with open(path, "rb") as fh:
            try:
                header = json.loads(fh.readline().decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InvalidParams(f"{path}: the header is not UTF-8 JSON ({exc})") from None
            result, arrays = arrays_of(header)
            views = [memoryview(a).cast("B") for a in arrays]
            # a buffered readinto fills its view unless the file ends first
            needed, got = sum(v.nbytes for v in views), sum(map(fh.readinto, views))
            if got < needed:
                raise InvalidParams(f"{path}: the body ends after {got} of the {needed} bytes "
                                    "its header's arrays take")
            if fh.read(1):
                raise InvalidParams(f"{path}: the body goes on past the {needed} bytes its "
                                    "header's arrays take")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise InvalidParams(f"{path}: cannot read the file ({exc.strerror})") from None
    return result


class Kind(NamedTuple):
    """What a field takes: a type (its description in a diagnostic, its test)
    and a range within that type (likewise; the whole type when omitted)."""

    what: str
    fits: Callable[[object], bool]
    range: str = ""
    within: Callable[[object], bool] = lambda v: True


def _number(range: str, within: Callable[[object], bool] = lambda v: True) -> Kind:
    # an int is a number, a bool is none; a finite one is neither NaN nor
    # infinite, nor an int beyond the floats
    return Kind("a number", lambda v: type(v) in (int, float), range,
                lambda v: abs(v) <= sys.float_info.max and within(v))


# The table of field kinds.
NON_NEGATIVE_INT = Kind("an int", lambda v: type(v) is int, ">= 0", lambda v: v >= 0)
POSITIVE_INT = Kind("an int", lambda v: type(v) is int, ">= 1", lambda v: v >= 1)
FINITE = _number("finite")
NON_NEGATIVE = _number("finite and >= 0", lambda v: v >= 0)
POSITIVE = _number("finite and > 0", lambda v: v > 0)
FRACTION = _number("in [0, 1)", lambda v: 0 <= v < 1)
FINITE_OR_NULL = Kind("null or a number", lambda v: v is None or FINITE.fits(v),
                      "null or finite", lambda v: v is None or FINITE.within(v))
FINITE_MAP = Kind("an object", lambda v: type(v) is dict, "an object of finite numbers",
                  lambda v: all(FINITE.fits(x) and FINITE.within(x) for x in v.values()))
BOOL = Kind("true or false", lambda v: type(v) is bool)
OBJECT = Kind("an object", lambda v: type(v) is dict)
OBJECT_OR_NULL = Kind("null or an object", lambda v: v is None or type(v) is dict)
LIST = Kind("a list", lambda v: type(v) is list)


def one_of(*choices: str) -> Kind:
    return Kind("a string", lambda v: type(v) is str, "one of " + ", ".join(map(repr, choices)),
                lambda v: v in choices)


def check_fields(obj, spec: dict, where: str, optional=()) -> dict:
    """obj, once it is an object with exactly the fields of spec (those named
    in optional may be absent), each of its kind, an instance of its config
    class or, for a nested spec (a dict), checked the same way; else one
    InvalidParams line naming the field's path, `where` first, and the bad
    value."""
    if type(obj) is not dict:
        raise InvalidParams(f"{where} must be an object, got {obj!r:.80}")
    unknown, missing = obj.keys() - spec.keys(), spec.keys() - obj.keys() - set(optional)
    if unknown:
        raise InvalidParams(f"{where} has unknown fields {sorted(unknown)}")
    if missing:
        raise InvalidParams(f"{where} has no field {min(missing)!r}")
    for name, value in obj.items():
        kind = spec[name]
        if isinstance(kind, dict):
            check_fields(value, kind, f"{where}.{name}")
        elif isinstance(kind, type):
            if not isinstance(value, kind):
                raise InvalidParams(f"{where}.{name} must be a {kind.__name__}, "
                                    f"got {value!r:.80}")
        elif not kind.fits(value):
            raise InvalidParams(f"{where}.{name} must be {kind.what}, got {value!r:.80}")
        elif not kind.within(value):
            raise InvalidParams(f"{where}.{name} must be {kind.range}, got {value!r:.80}")
    return obj


def config(cls):
    """Make cls a frozen dataclass whose every field is declared with its kind,
    `name: Annotated[type, KIND] = default`, or is a nested config,
    `name: OtherConfig = OtherConfig()`; any other field is a TypeError here.
    Each instance has its fields checked (check_fields, naming `Class.field`),
    then the class's own __post_init__, its cross-field rule, runs if it has one.
    The kinds by field name are cls._kinds, a nested config's its class."""
    rule = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        check_fields({name: getattr(self, name) for name in cls._kinds}, cls._kinds,
                     cls.__name__)
        if rule is not None:
            rule(self)

    cls.__post_init__ = __post_init__
    cls = dataclasses.dataclass(frozen=True)(cls)
    cls._kinds = {}
    for f in dataclasses.fields(cls):
        if get_origin(f.type) is Annotated and isinstance(f.type.__metadata__[0], Kind):
            cls._kinds[f.name] = f.type.__metadata__[0]
        elif isinstance(f.type, type) and hasattr(f.type, "_kinds"):
            cls._kinds[f.name] = f.type
        else:
            raise TypeError(f"{cls.__name__}.{f.name} is declared as {f.type!r}, "
                            "neither Annotated[type, Kind] nor a config class")
    return cls


def from_dict(cls, d, where: str = "config"):
    """Config class cls built from a plain dict: unspecified fields take their
    defaults, a nested config is built from a nested dict the same way, and a
    field (at any depth) that is unknown or not of its kind fails in one line
    starting with `where`, as does the class's cross-field rule."""
    nested = {name: kind for name, kind in cls._kinds.items() if isinstance(kind, type)}
    check_fields(d, {**cls._kinds, **dict.fromkeys(nested, OBJECT)}, where,
                 optional=cls._kinds)
    kwargs = {name: from_dict(nested[name], value, f"{where}.{name}")
              if name in nested else value for name, value in d.items()}
    try:
        return cls(**kwargs)
    except InvalidParams as exc:
        raise InvalidParams(f"{where}: {exc}") from None


_RECORD = {"num_nodes": POSITIVE_INT, "edges": LIST, "node_features": LIST,
           "targets": FINITE_MAP}


def graph_to_record(g: Graph) -> dict:
    rec: dict = {"num_nodes": g.num_nodes, "edges": [[u, v] for u, v in g.edges]}
    if g.node_features is not None:
        rec["node_features"] = [list(map(float, row)) for row in g.node_features]
    if g.graph_targets:
        rec["targets"] = {k: float(v) for k, v in g.graph_targets.items()}
    return rec


def record_to_graph(rec) -> Graph:
    check_fields(rec, _RECORD, "record", optional=("edges", "node_features", "targets"))
    # Graph converts the features with one np.asarray
    return Graph(rec["num_nodes"], tuple(tuple(e) for e in rec.get("edges", [])),
                 rec.get("node_features"), dict(rec.get("targets", {})))


def _numbered_graphs(path: str):
    """The (1-based line number, graph) of each record of a dataset file, as
    the records are reached; a bad record raises a DatasetFormatError naming
    the file and its line, and so does a file without a record."""
    number = None
    for number, rec in read_json(path, lines=True):
        try:
            graph = record_to_graph(rec)
        except (EigenlearnError, TypeError, ValueError) as exc:
            raise DatasetFormatError(path, number, str(exc)) from None
        yield number, graph
    if number is None:
        raise DatasetFormatError(path, None, "holds no graph record")


def load_dataset(path: str) -> list[Graph]:
    """The graphs of a dataset file (see _numbered_graphs for its errors)."""
    return [graph for _, graph in _numbered_graphs(path)]


def dumps_graph(g: Graph) -> str:
    return json.dumps(graph_to_record(g), separators=(",", ":"))


def atomic_write_text(path: str, text: str, *buffers) -> None:
    """Write text (UTF-8), then each C-contiguous buffer's bytes straight from
    its memory, to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([text.encode("utf-8"), *buffers])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(path: str, graphs: list[Graph]) -> None:
    atomic_write_text(path, "".join(dumps_graph(g) + "\n" for g in graphs))
