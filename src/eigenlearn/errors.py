"""Exception hierarchy shared across the toolkit.

Every domain failure raises a subclass of EigenlearnError so callers (and the
CLI) can distinguish domain errors from programming errors.
"""


class EigenlearnError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidGraph(EigenlearnError):
    """Graph fields violate the structural invariants (bad edge, duplicate, ...)."""


class InvalidParams(EigenlearnError):
    """Generator or config parameters outside their legal domain."""


class IsolatedNode(EigenlearnError):
    """A degree-0 node where a random-walk operator is required; graph_index
    says which graph of a stack (None for a single adjacency)."""

    def __init__(self, index: int, graph_index: int | None = None):
        self.index = index
        self.graph_index = graph_index
        where = "" if graph_index is None else f" of graph {graph_index} in the stack"
        super().__init__(f"node {index}{where} has degree 0; diffusion is undefined")


class NotSymmetric(EigenlearnError):
    """Matrix asymmetry exceeds the eigensolver tolerance."""


class NoConvergence(EigenlearnError):
    """The eigensolver (LAPACK) failed to converge."""


class KTooLarge(EigenlearnError):
    """Requested more eigenpairs than the matrix dimension."""


class NotStochastic(EigenlearnError):
    """Row sums of a would-be transition matrix deviate from 1."""


class IndexOutOfRange(EigenlearnError):
    """Node index outside [0, n)."""


class NodeCountTooSmall(EigenlearnError):
    """Graph too small for the requested embedding (needs two distinct nodes)."""


class ShapeMismatch(EigenlearnError):
    """Operand shapes incompatible for the requested operation."""


class NotOrthonormal(EigenlearnError):
    """Matrix expected to have orthonormal columns (or be special orthogonal) is not."""


class GraphTooLarge(EigenlearnError):
    """Graph exceeds the padded budget of the graph-level head."""

    def __init__(self, num_nodes: int, max_nodes: int):
        self.num_nodes = num_nodes
        self.max_nodes = max_nodes
        super().__init__(f"graph has {num_nodes} nodes, head budget is {max_nodes}")


class RankDeficient(EigenlearnError):
    """A column collapsed during orthonormalization; graph_index says which
    graph of a stacked batch (None for a single matrix)."""

    def __init__(self, column_index: int, graph_index: int | None = None):
        self.column_index = column_index
        self.graph_index = graph_index
        where = "" if graph_index is None else f" of graph {graph_index} in the batch"
        super().__init__(f"column {column_index}{where} collapsed below tolerance "
                         "during orthonormalization")


class NumericalFault(EigenlearnError):
    """A forward op produced NaN or Inf."""


class NothingTrained(EigenlearnError):
    """A run's last epoch committed no batch: every one of them was skipped."""


class EmptyDatasetAfterFilter(EigenlearnError):
    """No graph survived the precondition filter."""


class MissingTarget(EigenlearnError):
    """A graph lacks the named scalar target required for fine-tuning."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"graph is missing target {name!r}")


class DatasetFormatError(EigenlearnError):
    """Malformed dataset file; carries the bad record's 1-based line number."""

    def __init__(self, path: str, line_number: int | None, reason: str):
        self.line_number = line_number
        where = path if line_number is None else f"{path}, line {line_number}"
        super().__init__(f"{where}: {reason}")
