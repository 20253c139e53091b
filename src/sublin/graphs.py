"""Attributed graphs and their matrix representations.

A graph stores one finite real vector of a fixed dimension per node and per
undirected edge. A representation is the dense, symmetric matrix-of-vectors
encoding of a graph under one particular node ordering; relabeling the nodes
permutes the representation without changing the graph.
"""
from __future__ import annotations

import numbers
from typing import Mapping, Tuple

import numpy as np

from .exceptions import ValidationError

EdgeKey = Tuple[int, int]


def _canonical_edge(i, j) -> EdgeKey:
    if i == j:
        raise ValidationError(f"self-loop on node {i} is not allowed")
    return (i, j) if i < j else (j, i)


def _numbers(value) -> bool:
    """The one number rule of attribute values: True for a real number, or a list,
    tuple or array of them at any depth. Booleans, strings, None and every other
    object are refused, which numpy would read as numbers or as NaN; an array is
    judged by its dtype, so a bool array is refused. Shapes are left to the caller."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):  # one type-set test for a list of scalars
        return {int, float}.issuperset(map(type, value)) or all(map(_numbers, value))
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number_array(value, fault: str) -> np.ndarray:
    """`value` as a new float64 array, or ValidationError(fault) unless it holds
    numbers only (`_numbers`) in a regular shape; an integer outside the float
    range raises the error of non-finite attributes."""
    if _numbers(value):
        try:
            return np.array(value, dtype=np.float64)
        except OverflowError:
            raise ValidationError("graph attributes must be finite") from None
        except ValueError:  # ragged lists
            pass
    raise ValidationError(fault)


def _edge_stack(keys, vecs, dim: int) -> np.ndarray:
    """The edge vectors as one new float64 (k, dim) array, or ValidationError
    naming the first edge whose vector is not dim numbers: an entry that is not a
    number, a ragged list, a bare scalar (never read as a row of one) or a wrong
    length."""
    if not vecs:
        return np.empty((0, dim))
    if _numbers(vecs):
        try:
            stack = np.array(vecs, dtype=np.float64)
            if stack.shape == (len(vecs), dim):
                return stack
        except (ValueError, OverflowError):  # ragged or huge: the pass below names the fault
            pass
    for key, vec in zip(keys, vecs):
        shape = _number_array(vec, f"edge {key} attribute is not a vector of numbers").shape
        if shape != (dim,):
            raise ValidationError(f"edge {key} attribute has shape {shape}, expected ({dim},)")


class AttributedGraph:
    """Undirected graph whose nodes and edges carry finite real vectors of one dimension.

    Edges are stored sparsely under canonical (i, j) keys with i < j. A stored
    edge whose attribute is the zero vector is indistinguishable from a missing
    edge once the graph is written as a dense representation; such graphs are
    accepted here but rejected by :func:`to_representation`, and can be repaired
    with :func:`attach_edge_flag`.

    The constructor is the one place where attributes are checked, by the number
    rule of `_numbers` and for shape, finiteness and duplicate edges. It copies the
    node attributes and the edge vectors into one read-only float64 array of its
    own, node rows first and then one row per undirected edge in order of first
    appearance; `node_attrs` and the values of `edge_attrs` are views of it. The
    caller's arrays are neither kept nor frozen.
    """

    # `_edges` is the (edges, attr_dim) block of the graph's array, in the order
    # of `edge_attrs`. `_rep` and `_self_product` are computed on first use and
    # kept: the dense encoding (`to_representation`) and the dot product with
    # itself (`matching.sdp`)
    __slots__ = ("node_attrs", "edge_attrs", "_edges", "_rep", "_self_product")

    def __init__(self, node_attrs, edges=()):
        for k, row in enumerate(node_attrs if isinstance(node_attrs, (list, tuple)) else ()):
            if not _numbers(row):
                raise ValidationError(f"node {k} attribute is not a vector of numbers")
        nodes = _number_array(node_attrs, "node attributes must be an (order x attr_dim) array of "
                                          "numbers")
        if nodes.ndim != 2:
            raise ValidationError(
                f"node attributes must be a 2-D (order x attr_dim) array, got shape {nodes.shape}"
            )
        if nodes.shape[1] < 1:
            raise ValidationError("attribute dimension must be at least 1")
        order, dim = nodes.shape

        items = (((i, j, vec) for (i, j), vec in edges.items()) if isinstance(edges, Mapping)
                 else edges)
        keys, vecs = [], []
        for i, j, vec in items:
            i, j = int(i), int(j)
            if not (0 <= i < order and 0 <= j < order):
                raise ValidationError(f"edge ({i},{j}) references a node outside 0..{order - 1}")
            keys.append(_canonical_edge(i, j))
            vecs.append(vec)
        stack = _edge_stack(keys, vecs, dim)
        first = {}
        for row, key in enumerate(keys):
            kept = first.setdefault(key, row)
            if kept != row and not np.array_equal(stack[kept], stack[row]):
                raise ValidationError(f"conflicting attributes for undirected edge {key}")
        if len(first) < len(keys):
            stack = stack[list(first.values())]
        attrs = np.concatenate((nodes, stack))
        if not np.isfinite(attrs).all():
            raise ValidationError("graph attributes must be finite")

        attrs.flags.writeable = False
        object.__setattr__(self, "node_attrs", attrs[:order])
        object.__setattr__(self, "_edges", attrs[order:])
        object.__setattr__(self, "edge_attrs", dict(zip(first, self._edges)))
        object.__setattr__(self, "_rep", None)
        object.__setattr__(self, "_self_product", None)

    def __setattr__(self, name, value):
        raise AttributeError("AttributedGraph is immutable")

    @classmethod
    def empty(cls, attr_dim: int, order: int = 0) -> "AttributedGraph":
        """Graph with `order` zero-attribute nodes and no edges."""
        return cls(np.zeros((order, attr_dim)))

    @property
    def order(self) -> int:
        return self.node_attrs.shape[0]

    @property
    def attr_dim(self) -> int:
        return self.node_attrs.shape[1]

    @property
    def n_edges(self) -> int:
        return len(self.edge_attrs)

    def edge_items(self):
        """Edges as ((i, j), vector) pairs in deterministic (sorted) order."""
        return sorted(self.edge_attrs.items())

    def __eq__(self, other):
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (np.array_equal(self.node_attrs, other.node_attrs)
                and self.edge_attrs.keys() == other.edge_attrs.keys()
                and all(np.array_equal(v, other.edge_attrs[k]) for k, v in self.edge_attrs.items()))

    def __repr__(self):
        return f"AttributedGraph(order={self.order}, attr_dim={self.attr_dim}, edges={self.n_edges})"


class Representation:
    """Dense symmetric encoding of a graph: an (n, n, d) array of attribute vectors.

    The diagonal holds node attributes, off-diagonal cells hold edge attributes,
    and a zero off-diagonal cell means no edge. Every cell must be finite. The
    constructor copies its input and checks the number rule of `_numbers`, shape,
    finiteness and symmetry.
    """

    __slots__ = ("cells",)

    def __init__(self, cells):
        arr = _number_array(cells, "cells must be an (n, n, d) array of numbers")
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"cells must have shape (n, n, d), got {arr.shape}")
        if arr.shape[2] < 1:
            raise ValidationError("attribute dimension must be at least 1")
        if not np.isfinite(arr).all():
            raise ValidationError("graph attributes must be finite")
        if not np.array_equal(arr, arr.transpose(1, 0, 2)):
            raise ValidationError("representation cells must be symmetric")
        arr.flags.writeable = False
        object.__setattr__(self, "cells", arr)

    @classmethod
    def _own(cls, cells: np.ndarray) -> "Representation":
        """Keep a freshly built float64 (n, n, d) array, read-only, without the copy
        and the checks: for arrays built from checked graphs or representations
        only, whose cells are finite and symmetric by construction."""
        cells.flags.writeable = False
        rep = object.__new__(cls)
        object.__setattr__(rep, "cells", cells)
        return rep

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    @classmethod
    def zeros(cls, order: int, attr_dim: int) -> "Representation":
        return cls(np.zeros((order, order, attr_dim)))

    @property
    def order(self) -> int:
        return self.cells.shape[0]

    @property
    def attr_dim(self) -> int:
        return self.cells.shape[2]

    @property
    def vector(self) -> np.ndarray:
        """Flattened replica of the cell array (length n*n*d)."""
        return self.cells.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return np.array_equal(self.cells, other.cells)

    def __repr__(self):
        return f"Representation(order={self.order}, attr_dim={self.attr_dim})"


def attach_edge_flag(graph: AttributedGraph) -> AttributedGraph:
    """Append one attribute dimension that is 1 on every edge and 0 on every node.

    Guarantees stored edge attributes are non-zero even when the original
    attributes were zero vectors, so the graph survives the dense encoding.
    """
    nodes = np.concatenate([graph.node_attrs, np.zeros((graph.order, 1))], axis=1)
    edges = [(i, j, np.concatenate([v, [1.0]])) for (i, j), v in graph.edge_items()]
    return AttributedGraph(nodes, edges)


def to_representation(graph: AttributedGraph) -> Representation:
    """Dense symmetric encoding of the graph under its stored node order,
    computed once per graph and kept on it.

    Raises, on every call, if any stored edge attribute is a zero vector, since
    that edge would silently disappear (use :func:`attach_edge_flag` first).
    """
    if graph._rep is not None:
        return graph._rep
    keys = list(graph.edge_attrs)
    nonzero = graph._edges.any(axis=1).tolist()
    if not all(nonzero):
        i, j = keys[nonzero.index(False)]
        raise ValidationError(
            f"edge ({i},{j}) has a zero attribute vector and cannot be represented; "
            "attach an edge flag first"
        )
    n, d = graph.order, graph.attr_dim
    cells = np.zeros((n, n, d))
    cells.reshape(n * n, d)[:: n + 1] = graph.node_attrs
    ij = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    cells[ij, ij[::-1]] = graph._edges  # (i, j) and (j, i) of every edge at once
    # finite by the graph's own check, symmetric by construction
    object.__setattr__(graph, "_rep", Representation._own(cells))
    return graph._rep


def from_representation(rep: Representation) -> AttributedGraph:
    """Project a representation back to a graph: zero off-diagonal cells become non-edges."""
    cells, n = rep.cells, rep.order
    edges = [(i, j, cells[i, j]) for i in range(n) for j in range(i + 1, n) if cells[i, j].any()]
    return AttributedGraph(np.diagonal(cells).T, edges)  # the diagonal as (n, d) node rows
