"""Dataset ingestion, persistence, and synthetic generation.

Native persistence is a directory holding a `meta.json` sidecar plus one JSON
Lines file per split. Each line is one graph:

    {"id": "train-000000", "class": "pos",
     "nodes": [[0.5, 1.0], ...],
     "edges": [[0, 1, [0.2, 0.0]], ...]}

with 0-based node indices, i < j, undirected edges. GXL/CXL covers the common
subset used by public graph repositories (typed <attr> values on nodes and
edges, collection files listing (file, class) pairs).
"""
from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .exceptions import (DatasetFormatError, InfeasibleSpecError, ValidationError, check_count,
                         check_number, checked, config_fields, config_value, integer, name_list)
from .files import atomic_write
from .graphs import AttributedGraph
from .learning import LabeledExample, _signed
from .matching import _HARD_ENUM_LIMIT, DEFAULT_EXACT_MAX_ORDER, MatcherConfig, sdp
from .model import SublinearModel, margin_lower_bound

META_FILENAME = "meta.json"


@dataclass(slots=True)
class Dataset:
    """Named, labeled graph collection with named splits and provenance."""

    name: str
    splits: Mapping[str, Sequence[LabeledExample]]
    class_set: Sequence
    provenance: dict | None = None

    def __post_init__(self):
        self.name = str(self.name)
        self.splits = {str(k): list(v) for k, v in self.splits.items()}
        self.class_set = tuple(self.class_set)
        self.provenance = dict(self.provenance or {})
        if len(set(self.class_set)) != len(self.class_set):
            raise ValidationError("duplicate entries in class_set")
        dims = {ex.graph.attr_dim for exs in self.splits.values() for ex in exs}
        if len(dims) > 1:
            raise ValidationError(f"graphs disagree on attr_dim: {sorted(dims)}")
        known = set(self.class_set)
        for split, exs in self.splits.items():
            for ex in exs:
                if ex.y not in known:
                    raise ValidationError(
                        f"split {split!r} contains class {ex.y!r} not in class_set"
                    )

    @property
    def attr_dim(self) -> Optional[int]:
        for exs in self.splits.values():
            if exs:
                return exs[0].graph.attr_dim
        return None

    def split(self, name: str) -> List[LabeledExample]:
        if name not in self.splits:
            raise ValidationError(f"dataset {self.name!r} has no split {name!r}")
        return self.splits[name]

    def __repr__(self):
        sizes = {k: len(v) for k, v in self.splits.items()}
        return f"Dataset({self.name!r}, splits={sizes}, classes={list(self.class_set)})"


def binary_examples(dataset: Dataset, split: str, positive_class=None) -> List[LabeledExample]:
    """Relabel a split to +1/-1; the positive class defaults to class_set[0]."""
    if len(dataset.class_set) != 2:
        raise ValidationError("binary relabeling needs exactly 2 classes")
    positive = dataset.class_set[0] if positive_class is None else positive_class
    if positive not in dataset.class_set:
        raise ValidationError(f"{positive!r} is not a class of this dataset")
    return _signed(dataset.split(split), positive)


# ---------------------------------------------------------------------------
# JSON Lines persistence
# ---------------------------------------------------------------------------

def _graph_to_doc(ex: LabeledExample, gid: str) -> dict:
    g = ex.graph
    return {
        "id": gid,
        "class": str(ex.y),
        "nodes": g.node_attrs.tolist(),
        "edges": [[i, j, v.tolist()] for (i, j), v in g.edge_items()],
    }


def _numbers(vec) -> bool:
    """False for a JSON attribute vector that is a list holding anything but JSON
    numbers, such as a numeric string, a boolean or null, which numpy would read
    as numbers (booleans are not numbers, as for config values); every other
    shape is left to AttributedGraph."""
    return not isinstance(vec, list) or {int, float}.issuperset(map(type, vec))


def _graph_from_doc(doc: dict, path, line: int) -> Tuple[str, LabeledExample]:
    try:
        gid = doc["id"]
        cls = doc["class"]
        rows = doc["nodes"]
        edges = [(integer(i), integer(j), vec) for i, j, vec in doc.get("edges", [])]
        for k, row in enumerate(rows if isinstance(rows, list) else ()):
            if not _numbers(row):
                raise DatasetFormatError(f"node {k} attribute is not a vector of numbers", path, line)
        for i, j, vec in edges:
            if not _numbers(vec):
                raise DatasetFormatError(f"edge ({i}, {j}) attribute is not a vector of numbers",
                                         path, line)
        nodes = np.asarray(rows, dtype=np.float64)
        if nodes.size == 0:
            raise DatasetFormatError("graphs without declared nodes are not supported", path, line)
    except DatasetFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"malformed graph record ({exc})", path, line) from exc
    for i, j, _ in edges:
        if not i < j:
            raise DatasetFormatError(f"edge [{i}, {j}] must satisfy i < j", path, line)
    try:
        graph = AttributedGraph(nodes, edges)
    except ValidationError as exc:
        raise DatasetFormatError(str(exc), path, line) from exc
    return str(gid), LabeledExample(graph, str(cls))


def write_jsonl(dataset: Dataset, dirpath) -> None:
    """Write a dataset directory: meta.json plus one <split>.jsonl per split."""
    os.makedirs(dirpath, exist_ok=True)
    meta = {
        "name": dataset.name,
        "classes": [str(c) for c in dataset.class_set],
        "splits": {name: f"{name}.jsonl" for name in dataset.splits},
        "provenance": dataset.provenance,
    }
    with atomic_write(os.path.join(dirpath, META_FILENAME)) as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    for name, examples in dataset.splits.items():
        with atomic_write(os.path.join(dirpath, meta["splits"][name])) as fh:
            for k, ex in enumerate(examples):
                fh.write(json.dumps(_graph_to_doc(ex, f"{name}-{k:06d}")))
                fh.write("\n")


def read_examples_jsonl(path) -> List[LabeledExample]:
    """Read one split file; raises with the offending line number on bad input."""
    examples = []
    seen = set()
    dim = None
    # text mode has turned every line ending into "\n"
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON ({exc.msg})", path, lineno) from exc
        gid, ex = _graph_from_doc(doc, path, lineno)
        if gid in seen:
            raise DatasetFormatError(f"duplicate graph id {gid!r}", path, lineno)
        seen.add(gid)
        if dim is None:
            dim = ex.graph.attr_dim
        elif ex.graph.attr_dim != dim:
            raise DatasetFormatError(
                f"attr_dim {ex.graph.attr_dim} does not match earlier graphs ({dim})",
                path, lineno,
            )
        examples.append(ex)
    return examples


def _read_text(path) -> str:
    """The text of a UTF-8 dataset file; other bytes raise DatasetFormatError
    naming `path`, as invalid JSON or XML in it does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"invalid UTF-8 ({exc})", path) from exc


def read_jsonl(dirpath) -> Dataset:
    """Read a dataset directory written by :func:`write_jsonl`."""
    meta_path = os.path.join(dirpath, META_FILENAME)
    try:
        meta = json.loads(_read_text(meta_path))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON ({exc.msg})", meta_path) from exc
    splits = {name: read_examples_jsonl(os.path.join(dirpath, filename))
              for name, filename in config_value(meta, "splits", _split_files, {}).items()}
    # each line's class is read as a string, so the class list is too
    classes = [str(c) for c in config_value(meta, "classes", name_list, ())]
    return Dataset(config_value(meta, "name", str, os.path.basename(os.path.normpath(dirpath))),
                   splits, classes, config_value(meta, "provenance", dict, {}))


def _split_files(doc) -> Dict[str, str]:
    if not isinstance(doc, dict) or not all(isinstance(f, str) for f in doc.values()):
        raise TypeError(f"expected an object mapping split names to file names, got {doc!r}")
    return doc


# ---------------------------------------------------------------------------
# GXL / CXL
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GxlAttrConfig:
    """Which named GXL attributes become which vector dimensions.

    Node attributes occupy the leading dimensions, edge attributes the
    following ones, and (when enabled) a trailing edge-flag dimension is 1 on
    every edge and 0 on every node. The flag defaults to on when no edge
    attributes are declared, so unattributed edges stay non-zero.
    """

    node_attr_names: Tuple[str, ...] = ()
    edge_attr_names: Tuple[str, ...] = ()
    append_edge_flag: Optional[bool] = None

    def __post_init__(self):
        for name in ("node_attr_names", "edge_attr_names"):
            object.__setattr__(self, name, checked(name, name_list, getattr(self, name)))
        if self.append_edge_flag is None:
            object.__setattr__(self, "append_edge_flag", not self.edge_attr_names)
        elif not isinstance(self.append_edge_flag, bool):
            raise ValidationError("'append_edge_flag': expected true, false or null, "
                                  f"got {self.append_edge_flag!r}")
        if self.attr_dim < 1:
            raise ValidationError("configured attribute dimension must be at least 1")

    @property
    def attr_dim(self) -> int:
        return len(self.node_attr_names) + len(self.edge_attr_names) + bool(self.append_edge_flag)

    @classmethod
    def from_json(cls, doc: dict) -> "GxlAttrConfig":
        return cls(**config_fields(doc, cls))


GXL_PRESETS = {
    # Letter drawings: nodes are line endpoints with plane coordinates,
    # edges are unattributed strokes.
    "letter": GxlAttrConfig(node_attr_names=("x", "y")),
}


def _attr_value(attr_el, path) -> float:
    for child in attr_el:
        text = (child.text or "").strip()
        try:
            return float(text)
        except ValueError as exc:
            raise DatasetFormatError(
                f"non-numeric value {text!r} for attribute {attr_el.get('name')!r}", path
            ) from exc
    raise DatasetFormatError(f"attribute {attr_el.get('name')!r} has no value element", path)


def _collect_attrs(element, names, what, path) -> List[float]:
    found = {}
    for attr_el in element.findall("attr"):
        name = attr_el.get("name")
        if name in names:
            found[name] = _attr_value(attr_el, path)
    missing = [n for n in names if n not in found]
    if missing:
        raise DatasetFormatError(f"{what} is missing declared attribute(s) {missing}", path)
    return [found[n] for n in names]


def _xml_root(document, path):
    try:
        return ET.fromstring(document)
    except ET.ParseError as exc:
        raise DatasetFormatError(f"invalid XML ({exc})", path) from exc


def parse_gxl(document, cfg: GxlAttrConfig, path="<gxl>") -> AttributedGraph:
    """Parse one GXL document (a string) into a graph.

    Nodes are numbered in document order; unknown attributes are ignored;
    undirected duplicate edges are dropped.
    """
    root = _xml_root(document, path)
    graph_el = root if root.tag == "graph" else root.find(".//graph")
    if graph_el is None:
        raise DatasetFormatError("document contains no <graph> element", path)

    n_node = len(cfg.node_attr_names)
    n_edge = len(cfg.edge_attr_names)
    d = cfg.attr_dim

    node_ids = {}
    node_rows = []
    for el in graph_el.iter("node"):
        nid = el.get("id")
        if nid is None or nid in node_ids:
            raise DatasetFormatError(f"missing or duplicate node id {nid!r}", path)
        values = _collect_attrs(el, cfg.node_attr_names, f"node {nid!r}", path)
        row = np.zeros(d)
        row[:n_node] = values
        node_ids[nid] = len(node_rows)
        node_rows.append(row)

    edges = {}
    for el in graph_el.iter("edge"):
        src, dst = el.get("from"), el.get("to")
        if src not in node_ids or dst not in node_ids:
            raise DatasetFormatError(
                f"edge references unknown node id {src if src not in node_ids else dst!r}", path
            )
        i, j = node_ids[src], node_ids[dst]
        if i == j:
            raise DatasetFormatError(f"self-loop on node {src!r} is not supported", path)
        key = (min(i, j), max(i, j))
        if key in edges:
            continue
        values = _collect_attrs(el, cfg.edge_attr_names, f"edge {src!r}->{dst!r}", path)
        vec = np.zeros(d)
        vec[n_node : n_node + n_edge] = values
        if cfg.append_edge_flag:
            vec[-1] = 1.0
        edges[key] = vec

    nodes = np.stack(node_rows) if node_rows else np.zeros((0, d))
    try:
        return AttributedGraph(nodes, [(i, j, v) for (i, j), v in edges.items()])
    except ValidationError as exc:
        raise DatasetFormatError(str(exc), path) from exc


def parse_gxl_file(path, cfg: GxlAttrConfig) -> AttributedGraph:
    return parse_gxl(_read_text(path), cfg, path=str(path))


def parse_cxl(document, base_dir, cfg: GxlAttrConfig, path="<cxl>"):
    """Parse a collection listing (a string) of (file, class) pairs into labeled examples.

    Referenced GXL files are resolved relative to `base_dir`. Returns the
    examples plus the class ids in listing order.
    """
    entries = [el for el in _xml_root(document, path).iter()
               if el.get("file") is not None and el.get("class") is not None]
    if not entries:
        raise DatasetFormatError("collection lists no (file, class) entries", path)
    examples = []
    classes = []
    for el in entries:
        filename = el.get("file")
        cls = el.get("class")
        gxl_path = os.path.join(base_dir, filename)
        if not os.path.exists(gxl_path):
            raise DatasetFormatError(f"referenced graph file {filename!r} not found", path)
        graph = parse_gxl_file(gxl_path, cfg)
        examples.append(LabeledExample(graph, cls))
        if cls not in classes:
            classes.append(cls)
    return examples, classes


def parse_cxl_file(path, base_dir, cfg: GxlAttrConfig):
    return parse_cxl(_read_text(path), base_dir, cfg, path=str(path))


def read_cxl_dataset(dirpath, cfg: GxlAttrConfig, name=None) -> Dataset:
    """Load a repository-style dataset directory with one CXL listing per split:
    `train.cxl`, `validation.cxl` and `test.cxl`."""
    splits = {}
    classes: List[str] = []
    for split in ("train", "validation", "test"):
        examples, listed = parse_cxl_file(os.path.join(dirpath, f"{split}.cxl"), dirpath, cfg)
        splits[split] = examples
        for c in listed:
            if c not in classes:
                classes.append(c)
    return Dataset(
        name or os.path.basename(os.path.normpath(dirpath)),
        splits,
        classes,
        provenance={"source": "cxl", "dir": str(dirpath),
                    "attr_config": {
                        "node_attr_names": list(cfg.node_attr_names),
                        "edge_attr_names": list(cfg.edge_attr_names),
                        "append_edge_flag": bool(cfg.append_edge_flag)}},
    )


# ---------------------------------------------------------------------------
# Synthetic generation with a certified margin
# ---------------------------------------------------------------------------

POSITIVE_CLASS = "pos"
NEGATIVE_CLASS = "neg"


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a planted-classifier dataset.

    Random graphs are scored by a hidden random classifier; a graph is kept
    only when its normalized score clears `planted_margin`, so the emitted
    sample is separable with at least that margin by construction.
    """

    n_examples: Mapping[str, int]
    order_range: Tuple[int, int]
    attr_dim: int
    planted_order: int
    planted_margin: float
    edge_density: float
    attribute_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        counts = {split: check_count("n_examples", n, 0)
                  for split, n in checked("n_examples", dict, self.n_examples).items()}
        if not any(counts.values()):
            raise ValidationError(f"'n_examples': expected at least one example, got {counts!r}")
        try:
            n_min, n_max = self.order_range
        except (TypeError, ValueError):
            raise ValidationError("'order_range': expected a pair of orders, "
                                  f"got {self.order_range!r}") from None
        # graphs are sampled up to the default exact cap; the planted graph may
        # take any order the exact matcher enumerates
        n_min = check_count("order_range", n_min, 1, DEFAULT_EXACT_MAX_ORDER)
        n_max = check_count("order_range", n_max, n_min, DEFAULT_EXACT_MAX_ORDER)
        object.__setattr__(self, "order_range", (n_min, n_max))
        object.__setattr__(self, "n_examples", counts)
        object.__setattr__(self, "attr_dim", check_count("attr_dim", self.attr_dim))
        object.__setattr__(self, "planted_order",
                           check_count("planted_order", self.planted_order, 1, _HARD_ENUM_LIMIT))
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))
        for name in ("planted_margin", "attribute_scale"):
            check_number(name, getattr(self, name), "a positive number", lambda v: v > 0)
        check_number("edge_density", self.edge_density, "a number in (0, 1]", lambda v: 0 < v <= 1)

    def to_json(self) -> dict:
        return {**asdict(self), "order_range": list(self.order_range)}

    @classmethod
    def from_json(cls, doc: dict) -> "SyntheticSpec":
        return cls(**config_fields(doc, cls))


def random_graph(rng, order, attr_dim, density, scale) -> AttributedGraph:
    """Attributes uniform on [-scale, scale]; each edge present with probability
    `density` and never carrying the zero vector."""
    if attr_dim < 1:  # an empty edge vector is always zero
        raise ValidationError(f"attr_dim must be at least 1, got {attr_dim}")
    nodes = rng.uniform(-scale, scale, size=(order, attr_dim))
    edges = []
    for i in range(order):
        for j in range(i + 1, order):
            if rng.random() < density:
                vec = rng.uniform(-scale, scale, size=attr_dim)
                while not any(vec.tolist()):  # a Python test costs less than ndarray.any here
                    vec = rng.uniform(-scale, scale, size=attr_dim)
                edges.append((i, j, vec))
    return AttributedGraph(nodes, edges)


class _SplitFiller:
    """Route accepted examples so each split reaches its quota with both classes."""

    def __init__(self, quotas: Mapping[str, int]):
        self.quota = {k: v for k, v in quotas.items() if v > 0}
        self.members: Dict[str, List[LabeledExample]] = {k: [] for k in self.quota}

    def _lacking(self, split, cls) -> bool:
        return (self.quota[split] >= 2
                and not any(ex.y == cls for ex in self.members[split]))

    def place(self, ex: LabeledExample) -> bool:
        open_splits = [s for s in self.quota if len(self.members[s]) < self.quota[s]]
        for s in open_splits:
            if self._lacking(s, ex.y):
                self.members[s].append(ex)
                return True
        for s in open_splits:
            free = self.quota[s] - len(self.members[s])
            still_lacking = sum(
                self._lacking(s, c) for c in (POSITIVE_CLASS, NEGATIVE_CLASS) if c != ex.y
            )
            if free > still_lacking:
                self.members[s].append(ex)
                return True
        return False

    def done(self) -> bool:
        return all(len(self.members[s]) == self.quota[s] for s in self.quota)


def generate_synthetic(spec: SyntheticSpec):
    """Sample a dataset that a hidden classifier separates with a certified margin.

    Returns (dataset, planted model). Every emitted example satisfies
    |f*(X)| / ||W*|| >= planted_margin for the planted (W*, b*); the smallest
    achieved normalized margin is stored in provenance as `margin_certificate`.
    Raises `InfeasibleSpecError` when the margin filter rejects more than 99.9%
    of candidates over the sampling budget.
    """
    rng = np.random.default_rng(spec.seed)
    matcher = MatcherConfig(method="exact",
                            exact_max_order=max(DEFAULT_EXACT_MAX_ORDER, spec.planted_order))

    w_norm = 0.0
    while w_norm == 0.0:
        planted_graph = random_graph(rng, spec.planted_order, spec.attr_dim,
                                     spec.edge_density, spec.attribute_scale)
        w_norm = math.sqrt(sdp(planted_graph, planted_graph, matcher).value)

    def raw_score(g: AttributedGraph) -> float:
        return sdp(planted_graph, g, matcher).value

    def sample_graph() -> AttributedGraph:
        order = int(rng.integers(spec.order_range[0], spec.order_range[1] + 1))
        return random_graph(rng, order, spec.attr_dim, spec.edge_density, spec.attribute_scale)

    # Recenters the bias on a pilot of raw scores so both classes stay frequent.
    pilot = [raw_score(sample_graph()) for _ in range(120)]
    center = float(np.median(pilot))
    threshold = spec.planted_margin * w_norm
    best_bias, best_minority = None, -1.0
    for _ in range(50):
        bias = float(rng.uniform(-1.0, 1.0)) - center
        pos = sum(s + bias >= threshold for s in pilot)
        neg = sum(s + bias <= -threshold for s in pilot)
        if pos + neg == 0:
            continue
        minority = min(pos, neg) / (pos + neg)
        if minority > best_minority:
            best_minority, best_bias = minority, bias
        if minority >= 0.2:
            break
    bias = best_bias if best_bias is not None else -center
    planted = SublinearModel.from_weight_graph(planted_graph, bias, matcher,
                                               metadata={"role": "planted"})

    need = sum(v for v in spec.n_examples.values() if v > 0)
    filler = _SplitFiller(spec.n_examples)
    attempts = 0
    accepted = 0
    budget_cap = max(1000 * need, 100000)
    certificate = math.inf
    while not filler.done():
        attempts += 1
        if attempts % 1000 == 0 and accepted < attempts / 1000:
            raise InfeasibleSpecError(
                f"margin filter rejected {attempts - accepted}/{attempts} candidates; "
                "lower planted_margin or raise attribute_scale"
            )
        if attempts > budget_cap:
            raise InfeasibleSpecError(
                "sampling budget exhausted before all splits were filled with both classes"
            )
        g = sample_graph()
        score = raw_score(g) + bias
        if abs(score) / w_norm < spec.planted_margin:
            continue
        accepted += 1
        cls = POSITIVE_CLASS if score >= 0 else NEGATIVE_CLASS
        if filler.place(LabeledExample(g, cls)):
            certificate = min(certificate, abs(score) / w_norm)

    splits = {k: v for k, v in filler.members.items()}
    balance = {
        s: {POSITIVE_CLASS: sum(ex.y == POSITIVE_CLASS for ex in exs),
            NEGATIVE_CLASS: sum(ex.y == NEGATIVE_CLASS for ex in exs)}
        for s, exs in splits.items()
    }
    dataset = Dataset(
        name=f"synthetic-{spec.seed}",
        splits=splits,
        class_set=(POSITIVE_CLASS, NEGATIVE_CLASS),
        provenance={
            "source": "synthetic",
            "spec": spec.to_json(),
            "seed": spec.seed,
            "class_balance": balance,
            "margin_certificate": certificate,
            "planted_bias": bias,
        },
    )
    return dataset, planted


def margin_certificate(dataset: Dataset, planted: SublinearModel) -> float:
    """Smallest normalized margin y * f*(X) / ||W*|| over all examples."""
    worst = math.inf
    for exs in dataset.splits.values():
        for ex in _signed(exs, POSITIVE_CLASS):
            worst = min(worst, ex.y * margin_lower_bound(planted, ex.graph))
    return worst
