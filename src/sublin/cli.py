"""Command-line surface: dot, train, eval, synth, bench, protocol.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 infeasible synthetic
spec.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import data_io, matching
from .data_io import (GXL_PRESETS, GxlAttrConfig, SyntheticSpec, binary_examples,
                      generate_synthetic, read_examples_jsonl, read_jsonl, write_jsonl)
from .exceptions import (InfeasibleSpecError, ValidationError, check_count, config_fields,
                         config_value, text)
from .files import atomic_write, read_json
from .learning import TrainConfig, train_binary, train_one_vs_all, write_trace_jsonl
from .matching import MatcherConfig, exact_sdp, ga_sdp, sdp
from .model import OvaModel, _predictions, load_model, save_model
from .protocol import ProtocolConfig, run_protocol

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _matcher_from_args(args) -> MatcherConfig:
    order = check_count("--exact-max-order", args.exact_max_order, 1, matching._HARD_ENUM_LIMIT)
    return MatcherConfig(method=args.matcher, exact_max_order=order)


def _matcher(doc: dict, args) -> MatcherConfig:
    """The config's `matcher`, or the flags' matcher when the config names none."""
    if "matcher" in doc:
        return config_value(doc, "matcher", MatcherConfig.from_json)
    return _matcher_from_args(args)


def _load_graph(path, gxl_cfg: GxlAttrConfig):
    if str(path).endswith(".gxl"):
        return data_io.parse_gxl_file(path, gxl_cfg)
    examples = read_examples_jsonl(path)
    if not examples:
        raise ValidationError(f"{path} contains no graphs")
    return examples[0].graph


def _task(value):
    if value not in ("auto", "binary", "ova"):
        raise ValueError(f"expected 'auto', 'binary' or 'ova', got {value!r}")
    return value


def _write_json(doc, path=None):
    text = json.dumps(doc, indent=2)
    if path:
        with atomic_write(path) as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _cmd_dot(args) -> int:
    gxl_cfg = (GxlAttrConfig.from_json(read_json(args.gxl_config)) if args.gxl_config
               else GXL_PRESETS["letter"])
    a = _load_graph(args.file_a, gxl_cfg)
    b = _load_graph(args.file_b, gxl_cfg)
    result = sdp(a, b, _matcher_from_args(args))
    doc = {
        "value": result.value,
        "match": [list(p) for p in result.match.pairs],
        "exact": result.exact,
    }
    if args.json:
        _write_json(doc)
    else:
        print(f"value  {result.value!r}")
        print(f"match  {' '.join(f'{i}->{r}' for i, r in result.match.pairs) or '(empty)'}")
        print(f"mode   {'exact' if result.exact else 'heuristic'}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg_doc = read_json(args.config)
    fields = config_fields(cfg_doc, TrainConfig, keys={"learning_rate": "eta", "margin": "lambda"},
                           defaults={"learning_rate": 0.1, "seed": args.seed})
    tc = TrainConfig(**fields | {"matcher": _matcher(cfg_doc, args)})
    # a model file records the rates of a JSON config as floats, `1` as 1.0
    tc = replace(tc, learning_rate=float(tc.learning_rate), margin=float(tc.margin))
    dataset = read_jsonl(config_value(cfg_doc, "data", text))
    split = config_value(cfg_doc, "split", text, "train")
    examples = dataset.split(split)
    if not examples:
        raise ValidationError(f"split {split!r} of {dataset.name!r} is empty")
    task = config_value(cfg_doc, "task", _task, "auto")
    if task == "auto":
        task = "binary" if len(dataset.class_set) == 2 else "ova"
    os.makedirs(args.out, exist_ok=True)
    if task == "binary":
        positive = config_value(cfg_doc, "positive_class", text, dataset.class_set[0])
        trained, trace = train_binary(binary_examples(dataset, split, positive), tc)
        trained.metadata["positive_class"] = str(positive)
        write_trace_jsonl(trace, os.path.join(args.out, "trace.jsonl"))
        converged = trace.converged
    else:
        trained, traces = train_one_vs_all(examples, tc)
        for cls, tr in zip(trained.classes, traces):
            write_trace_jsonl(tr, os.path.join(args.out, f"trace-{cls}.jsonl"))
        converged = all(tr.converged for tr in traces)
    model_path = os.path.join(args.out, "model.json")
    save_model(trained, model_path)
    print(f"wrote {model_path} (converged={converged})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    loaded = load_model(args.model)
    dataset = read_jsonl(args.data)
    examples = dataset.split(args.split)
    if not examples:
        raise ValidationError(f"split {args.split!r} is empty")
    classes = list(dataset.class_set)
    if not isinstance(loaded, OvaModel):
        positive = loaded.metadata.get("positive_class", str(classes[0]))
        negative = next((str(c) for c in classes if str(c) != positive), positive)
    confusion = {str(t): {str(p): 0 for p in classes} for t in classes}
    for cls in loaded.classes if isinstance(loaded, OvaModel) else [positive]:
        if str(cls) not in confusion:
            raise ValidationError(f"the model's class {cls!r} is not a class of the dataset")
    hits = 0
    for (pred,), ex in zip(_predictions([loaded], [ex.graph for ex in examples]), examples):
        if not isinstance(loaded, OvaModel):
            pred = positive if pred == 1 else negative
        confusion[str(ex.y)][str(pred)] += 1
        hits += str(pred) == str(ex.y)
    doc = {"split": args.split, "n": len(examples),
           "accuracy": hits / len(examples), "confusion": confusion}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(doc, os.path.join(args.out, "eval.json"))
    if args.json:
        _write_json(doc)
        return EXIT_OK
    width = max(len(str(c)) for c in classes) + 2
    header = " " * width + "".join(f"{str(c):>{width}}" for c in classes)
    print(f"accuracy {doc['accuracy']:.4f} on {len(examples)} examples")
    print(header)
    for t in classes:
        row = "".join(f"{confusion[str(t)][str(p)]:>{width}}" for p in classes)
        print(f"{str(t):>{width}}{row}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = SyntheticSpec.from_json(read_json(args.spec))
    dataset, planted = generate_synthetic(spec)
    write_jsonl(dataset, args.out)
    save_model(planted, os.path.join(args.out, "planted_model.json"))
    cert = dataset.provenance["margin_certificate"]
    print(f"wrote {args.out}: {sum(len(v) for v in dataset.splits.values())} graphs, "
          f"margin certificate {cert:.6g}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    check_count("--pairs", args.pairs)
    check_count("--attr-dim", args.attr_dim)
    check_count("--max-order", args.max_order, 1, matching._HARD_ENUM_LIMIT)  # the exact cap
    check_count("--min-order", args.min_order, 1, args.max_order)
    rng = np.random.default_rng(args.seed)
    gaps = []
    times = {"exact": 0.0, "graduated": 0.0}
    attained = 0
    for _ in range(args.pairs):
        order = int(rng.integers(args.min_order, args.max_order + 1))
        a = data_io.random_graph(rng, order, args.attr_dim, 0.5, 1.0)
        b = data_io.random_graph(rng, int(rng.integers(args.min_order, args.max_order + 1)),
                                 args.attr_dim, 0.5, 1.0)
        t0 = time.perf_counter()
        exact = exact_sdp(a, b, max_order=args.max_order)
        times["exact"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        heur = ga_sdp(a, b)
        times["graduated"] += time.perf_counter() - t0
        gap = exact.value - heur.value
        gaps.append(gap)
        attained += gap <= 1e-9
    doc = {
        "pairs": args.pairs,
        "orders": [args.min_order, args.max_order],
        "attr_dim": args.attr_dim,
        "gap_mean": float(np.mean(gaps)),
        "gap_max": float(np.max(gaps)),
        "gap_min": float(np.min(gaps)),
        "optimum_attainment_rate": attained / args.pairs,
        "seconds_exact": times["exact"],
        "seconds_graduated": times["graduated"],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(doc, os.path.join(args.out, "bench.json"))
    print(f"pairs {args.pairs}  gap mean {doc['gap_mean']:.3e}  max {doc['gap_max']:.3e}  "
          f"min {doc['gap_min']:.3e}")
    print(f"optimum attained {attained}/{args.pairs}")
    print(f"time  exact {times['exact']:.3f}s  graduated {times['graduated']:.3f}s")
    return EXIT_OK


def _cmd_protocol(args) -> int:
    doc = read_json(args.config)
    fields = config_fields(doc, ProtocolConfig, defaults={"seed": args.seed})
    cfg = ProtocolConfig(**fields | {
        "dataset": read_jsonl(config_value(doc, "dataset", text)),
        "matcher": _matcher(doc, args)})
    report = run_protocol(cfg)
    print(report.to_text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(report.to_json(), os.path.join(args.out, "report.json"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sublin",
                     description="Graph classifiers built on the correspondence-maximized dot product")
    parser.add_argument("--matcher", choices=matching._METHODS, default=MatcherConfig.method)
    parser.add_argument("--exact-max-order", type=int, default=matching.DEFAULT_EXACT_MAX_ORDER)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dot", help="dot product of two graph files (.jsonl or .gxl)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--gxl-config", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("train", help="train from a JSON config; writes model + trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="accuracy and confusion matrix of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="materialize a synthetic dataset spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="time exact vs graduated matching on random pairs")
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--min-order", type=int, default=3)
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--attr-dim", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("protocol", help="run the grid-search + repeated-test protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_protocol)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow is reported as a "finite" ValidationError where the value is checked
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except InfeasibleSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
