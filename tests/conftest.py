"""Shared sampling helpers and fixed documents for the test suite."""
import numpy as np

from sublin import (AttributedGraph, LabeledExample, Representation, from_representation,
                    to_representation)

# Graduated assignment's fixed schedule, what the reference loop in test_matching
# runs. Model files of earlier versions carry it as `matcher_config.ga_params`,
# the first six keys only: the round tolerance `assignment_tol` came later.
FIRST_GA_SCHEDULE = {"beta_start": 0.5, "beta_rate": 1.075, "beta_max": 10.0,
                     "sinkhorn_max_iters": 30, "sinkhorn_tol": 0.005, "assignment_rounds_max": 4,
                     "assignment_tol": 1e-3}


def rand_graph(rng, order, attr_dim, density=0.5, scale=1.0, distinct_nodes=False):
    """Random graph with continuous attributes (zero edge vectors never occur)."""
    nodes = rng.uniform(-scale, scale, size=(order, attr_dim))
    if distinct_nodes and order > 1:
        nodes[:, 0] = np.linspace(-scale, scale, order) + rng.normal(0, 0.05 * scale, order)
    edges = []
    for i in range(order):
        for j in range(i + 1, order):
            if rng.random() < density:
                edges.append((i, j, rng.uniform(-scale, scale, size=attr_dim)))
    return AttributedGraph(nodes, edges)


def three_class_examples(rng, size):
    """`size` examples of 1-3 nodes with d=3; example i is class "c{i % 3}", its
    nodes near 2 along axis i % 3."""
    examples = []
    for i in range(size):
        nodes = rng.normal(0.0, 0.1, size=(int(rng.integers(1, 4)), 3))
        nodes[:, i % 3] += 2.0
        examples.append(LabeledExample(AttributedGraph(nodes), f"c{i % 3}"))
    return examples


def rand_sym_cells(rng, order, attr_dim, scale=1.0):
    """Random symmetric point of the ambient representation space."""
    a = rng.normal(size=(order, order, attr_dim)) * scale
    return (a + a.transpose(1, 0, 2)) / 2.0


def relabeled(rep, mapping):
    """The representation with node i renamed mapping[i]: cell (i, j) moves to
    (mapping[i], mapping[j])."""
    p = np.asarray(mapping, dtype=np.intp)
    out = np.empty_like(rep.cells)
    out[np.ix_(p, p)] = rep.cells
    return Representation(out)


def permuted_graph(graph, mapping):
    """The same graph with nodes relabeled by `mapping`."""
    return from_representation(relabeled(to_representation(graph), mapping))


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
