"""The benchmark's three workloads and their output checks.

Each workload turns an input seed into files on disk (`prepare`), times the
set-up that produces the dataset `run_protocol` consumes (`setup`), reloads a
fresh copy of that dataset for every timed call (`load`, untimed, so no cache
the program keeps on graph objects outlives one call, as for a CLI user) and
checks every report (`check_report`).

- protocol-exact: many small exact matcher calls through `optimal_align` at
  weight order 6 (margin perceptron, full default grids, 3 repeats).
- knn-exact: 1-NN reaches the matcher through the value path (induced_distance
  -> sdp -> exact_sdp, kernel_value) at order 7, with no training loop.
- letter-ga: one-against-all margin perceptron with graduated assignment on
  letter-shaped GXL/CXL files, the only workload that runs GA and reads GXL.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

from sublin import GXL_PRESETS, MatcherConfig, ProtocolConfig, SyntheticSpec, data_io, matching

import letters

# Inputs come from one of this many input seeds (seed mod INPUT_SEEDS), each with
# a committed reference digest, so every run's output can be checked exactly.
INPUT_SEEDS = 64
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def dataset_digest(ds) -> str:
    """Digest of everything a dataset holds, floats in shortest round-trip form."""
    return digest({
        "name": ds.name,
        "classes": [str(c) for c in ds.class_set],
        "provenance": ds.provenance,
        "splits": {name: [[str(ex.y), ex.graph.node_attrs.tolist(),
                           [[i, j, v.tolist()] for (i, j), v in ex.graph.edge_items()]]
                          for ex in exs]
                   for name, exs in ds.splits.items()},
    })


def report_digest(report) -> str:
    """Digest of a report without its timing and call count, which may change."""
    doc = report.to_json()
    del doc["wall_time_s"], doc["matcher_calls"]
    return digest(doc)


class SyntheticWorkload:
    """Binary planted-margin data through the `sublin synth` path: generate,
    write JSONL, read it back."""

    def __init__(self, name, setup_repeats, n_examples, order_range, algorithm, **protocol):
        self.name = name
        self.setup_repeats = setup_repeats
        self.n_examples = n_examples
        self.order_range = order_range
        self.algorithm = algorithm
        self.protocol = protocol

    def prepare(self, workdir, input_seed):
        self.dir = os.path.join(workdir, "data")
        self.seed = input_seed
        self.spec = SyntheticSpec(n_examples=self.n_examples, order_range=self.order_range,
                                  attr_dim=2, planted_order=4, planted_margin=0.3,
                                  edge_density=0.5, seed=input_seed)

    @property
    def reference(self):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return json.load(fh)[self.name][str(self.seed)]

    def setup(self):
        dataset, _ = data_io.generate_synthetic(self.spec)
        data_io.write_jsonl(dataset, self.dir)
        return data_io.read_jsonl(self.dir)

    def load(self):
        return data_io.read_jsonl(self.dir)

    def config(self, dataset):
        return ProtocolConfig(dataset=dataset, algorithm=self.algorithm, seed=self.seed,
                              **self.protocol)

    def check_dataset(self, dataset):
        return _expect("dataset digest", dataset_digest(dataset), self.reference["dataset"])

    def check_report(self, report):
        return _expect("report digest", report_digest(report), self.reference["report"])

    def check_outside_timing(self, dataset):
        return []


class LetterWorkload:
    """Letter-shaped GXL/CXL files, one-against-all margin perceptron with GA."""

    name = "letter-ga"
    setup_repeats = 7
    per_class = {"train": 1, "validation": 1, "test": 2}
    classes = tuple(letters.PROTOTYPES)
    eta_grid = (0.1,)
    lambda_grid = (0.1,)
    checked_pairs = 4       # (test, train) pairs compared with the exact optimum
    checked_max_order = 7

    def prepare(self, workdir, input_seed):
        self.dir = os.path.join(workdir, "letters")
        self.seed = input_seed
        letters.write_collection(self.dir, input_seed, self.per_class)
        self.first_report = None

    def setup(self):
        return data_io.read_cxl_dataset(self.dir, GXL_PRESETS["letter"], name=f"letter-{self.seed}")

    load = setup

    def config(self, dataset):
        return ProtocolConfig(dataset=dataset, algorithm="margin_perceptron",
                              eta_grid=self.eta_grid, lambda_grid=self.lambda_grid,
                              repeats=1, seed=self.seed, max_epochs=1, weight_order=9,
                              matcher=MatcherConfig(method="graduated"))

    def check_dataset(self, dataset):
        problems = []
        sizes = {s: len(dataset.split(s)) for s in self.per_class}
        want = {s: n * len(self.classes) for s, n in self.per_class.items()}
        if sizes != want:
            problems.append(f"split sizes {sizes}, expected {want}")
        if dataset.class_set != self.classes or dataset.attr_dim != 3:
            problems.append(f"classes {dataset.class_set} / attr_dim {dataset.attr_dim}")
        return problems

    def check_report(self, report):
        """Well formed, and identical (timing aside) to the run's first report."""
        problems = []
        doc = report.to_json()
        if report.selected_eta not in self.eta_grid:
            problems.append(f"selected eta {report.selected_eta} not in grid")
        if report.selected_lambda not in self.lambda_grid:
            problems.append(f"selected lambda {report.selected_lambda} not in grid")
        accs = doc["test"]["accuracies"]
        if len(accs) != report.repeats:
            problems.append(f"{len(accs)} test accuracies for {report.repeats} repeats")
        values = accs + [doc["test"][k] for k in ("mean", "std", "max")]
        values += [a for row in report.eta_search + report.lambda_search
                   for a in row["accuracies"] + [row["mean"]]]
        if not all(isinstance(a, float) and 0.0 <= a <= 1.0 for a in values):
            problems.append(f"accuracy outside [0, 1] in {values}")
        key = report_digest(report)
        if self.first_report is None:
            self.first_report = key
        problems += _expect("report digest vs. first call", key, self.first_report)
        return problems

    def check_outside_timing(self, dataset):
        """GA is a feasible matching, so its value never exceeds the exact optimum."""
        problems = []
        pairs = [(x.graph, y.graph) for x in dataset.split("test") for y in dataset.split("train")
                 if max(x.graph.order, y.graph.order) <= self.checked_max_order]
        for x, y in pairs[: self.checked_pairs]:
            ga = matching.ga_sdp(x, y).value
            exact = matching.exact_sdp(x, y, self.checked_max_order).value
            if not (math.isfinite(ga) and ga <= exact + 1e-9):
                problems.append(f"GA value {ga!r} exceeds exact optimum {exact!r}")
        if len(pairs) < self.checked_pairs:
            problems.append(f"only {len(pairs)} pairs small enough for the exact check")
        return problems


def _expect(what, got, want):
    return [] if got == want else [f"{what} {got} != reference {want}"]


WORKLOADS = {
    w.name: w for w in (
        SyntheticWorkload("protocol-exact", 5, {"train": 20, "validation": 10, "test": 10},
                          (3, 6), "margin_perceptron", repeats=3, max_epochs=2),
        SyntheticWorkload("knn-exact", 3, {"train": 20, "validation": 10, "test": 20},
                          (7, 7), "knn"),
        LetterWorkload(),
    )
}
