import numpy as np
import pytest

from sublin import (AttributedGraph, Dataset, DatasetFormatError, DegenerateModelError,
                    GXL_PRESETS, GxlAttrConfig, InfeasibleSpecError, LabeledExample,
                    MatcherConfig, Representation, SublinearModel, SyntheticSpec,
                    ValidationError, binary_examples, classify, evaluate,
                    generate_synthetic, margin_certificate, parse_cxl, parse_gxl,
                    read_cxl_dataset, read_examples_jsonl, read_jsonl, weight_norm,
                    write_jsonl)

EXACT = MatcherConfig()
NOT_NUMBERS = r"edge \(0, 1\) attribute is not a vector of numbers"


def small_dataset():
    g1 = AttributedGraph([[1.0], [2.0]], [(0, 1, [1.0])])
    g2 = AttributedGraph([[-1.0], [0.5]], [(0, 1, [0.25])])
    g3 = AttributedGraph([[3.0]])
    return Dataset(
        "tiny",
        {"train": [LabeledExample(g1, "a"), LabeledExample(g2, "b")],
         "test": [LabeledExample(g3, "a")]},
        class_set=("a", "b"),
        provenance={"source": "handmade"},
    )


class TestJsonl:
    def test_round_trip_equality(self, tmp_path):
        ds = small_dataset()
        write_jsonl(ds, tmp_path / "ds")
        assert read_jsonl(tmp_path / "ds") == ds

    def test_one_graph_line(self, tmp_path):
        path = tmp_path / "graphs.jsonl"
        path.write_text(
            '{"id": "g0", "class": "a", "nodes": [[1.0], [2.0]], "edges": [[0, 1, [1.0]]]}\n'
        )
        examples = read_examples_jsonl(path)
        assert len(examples) == 1
        assert examples[0].graph == AttributedGraph([[1.0], [2.0]], [(0, 1, [1.0])])
        assert examples[0].y == "a"

    def test_empty_split_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_examples_jsonl(path) == []

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "g0", "class": "a", "nodes": [[1.0]], "edges": []}\nnot json\n'
        )
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_examples_jsonl(path)

    @pytest.mark.parametrize("record, message", [
        ('"nodes": [[NaN]], "edges": []', "graph attributes must be finite"),
        ('"nodes": [[1.0], [2.0]], "edges": [[0, 1, [1e999]]]', "graph attributes must be finite"),
        ('"nodes": [[1.0], [2.0]], "edges": [[0, 1, "x"]]', NOT_NUMBERS),
        ('"nodes": [[1.0], [2.0]], "edges": [[0, 1, {"a": 1}]]', NOT_NUMBERS),
        ('"nodes": [[1.0], [2.0]], "edges": [[0, 1, ["x"]]]', NOT_NUMBERS),
    ], ids=["node", "edge", "string", "object", "string-entry"])
    def test_non_finite_attribute_reports_line_number(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "g0", "class": "a", "nodes": [[1.0]], "edges": []}\n'
                        f'{{"id": "g1", "class": "a", {record}}}\n')
        with pytest.raises(DatasetFormatError, match=f"line 2: {message}"):
            read_examples_jsonl(path)

    @pytest.mark.parametrize("record, message", [
        ('"nodes": [["1.5"], [2.0]], "edges": []', "node 0 attribute is not a vector of numbers"),
        ('"nodes": [[1.0], [true]], "edges": []', "node 1 attribute is not a vector of numbers"),
        ('"nodes": [[null]], "edges": []', "node 0 attribute is not a vector of numbers"),
        ('"nodes": [[1.0], [2.0]], "edges": [[0, 1, ["2"]]]', NOT_NUMBERS),
        ('"nodes": [[1.0], [2.0]], "edges": [[0, 1, [false]]]', NOT_NUMBERS),
        ('"nodes": [[1.0], [2.0]], "edges": [[0, 1, [null]]]', NOT_NUMBERS),
    ], ids=["node-numeric-string", "node-boolean", "node-null", "edge-numeric-string",
            "edge-boolean", "edge-null"])
    def test_non_number_attribute_reports_line_number(self, tmp_path, record, message):
        # numpy reads "1.5", true and null as 1.5, 1.0 and NaN; numbers are JSON numbers
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "g0", "class": "a", "nodes": [[1.0]], "edges": []}\n'
                        f'{{"id": "g1", "class": "a", {record}}}\n')
        with pytest.raises(DatasetFormatError, match=f"^{path}: line 2: {message}$"):
            read_examples_jsonl(path)

    def test_duplicate_id_rejected(self, tmp_path):
        line = '{"id": "g0", "class": "a", "nodes": [[1.0]], "edges": []}\n'
        path = tmp_path / "dup.jsonl"
        path.write_text(line + line)
        with pytest.raises(DatasetFormatError, match="duplicate"):
            read_examples_jsonl(path)

    def test_attr_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "dims.jsonl"
        path.write_text(
            '{"id": "g0", "class": "a", "nodes": [[1.0]], "edges": []}\n'
            '{"id": "g1", "class": "a", "nodes": [[1.0, 2.0]], "edges": []}\n'
        )
        with pytest.raises(DatasetFormatError, match="attr_dim"):
            read_examples_jsonl(path)

    def test_splits_disagreeing_on_attr_dim_rejected(self, tmp_path):
        (tmp_path / "meta.json").write_text(
            '{"classes": ["a"], "splits": {"train": "train.jsonl", "test": "test.jsonl"}}'
        )
        (tmp_path / "train.jsonl").write_text(
            '{"id": "g0", "class": "a", "nodes": [[1.0]], "edges": []}\n'
        )
        (tmp_path / "test.jsonl").write_text(
            '{"id": "g1", "class": "a", "nodes": [[1.0, 2.0]], "edges": []}\n'
        )
        with pytest.raises(ValidationError, match="attr_dim"):
            read_jsonl(tmp_path)

    def test_edge_index_order_enforced(self, tmp_path):
        path = tmp_path / "order.jsonl"
        path.write_text(
            '{"id": "g0", "class": "a", "nodes": [[1.0], [2.0]], "edges": [[1, 0, [1.0]]]}\n'
        )
        with pytest.raises(DatasetFormatError, match="i < j"):
            read_examples_jsonl(path)

    @pytest.mark.parametrize("edge", [
        "[0, 1.9, [1.0]]", "[0.0, 1.0, [1.0]]", "[false, true, [1.0]]", '["0", "1", [1.0]]',
    ], ids=["float", "integral-float", "bool", "string"])
    def test_edge_endpoints_must_be_integers(self, tmp_path, edge):
        # never truncated or read from booleans or strings as edge (0, 1)
        path = tmp_path / "edges.jsonl"
        path.write_text('{"id": "g0", "class": "a", "nodes": [[1.0]], "edges": []}\n'
                        f'{{"id": "g1", "class": "a", "nodes": [[1.0], [2.0]], "edges": [{edge}]}}\n')
        with pytest.raises(DatasetFormatError, match=r"edges\.jsonl: line 2: malformed graph record"):
            read_examples_jsonl(path)

    def test_line_endings_and_numbers(self, tmp_path):
        # CRLF and lone CR end lines as LF does, and blank lines keep their numbers
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(b'{"id": "g0", "class": "a", "nodes": [[1.0]], "edges": []}\r\n\r\n'
                         b'{"id": "g1", "class": "a", "nodes": [[2.0]], "edges": []}\r'
                         b'not json\r\n')
        with pytest.raises(DatasetFormatError, match="line 4: invalid JSON"):
            read_examples_jsonl(path)
        path.write_bytes(path.read_bytes().replace(b"not json\r\n", b""))
        assert [ex.graph.node_attrs[0, 0] for ex in read_examples_jsonl(path)] == [1.0, 2.0]

    @pytest.mark.parametrize("bad", ["train.jsonl", "meta.json"])
    def test_undecodable_file_names_it(self, tmp_path, bad):
        write_jsonl(small_dataset(), tmp_path)
        (tmp_path / bad).write_bytes(b'{"id": "\xff"}\n')
        with pytest.raises(DatasetFormatError, match=rf"{bad}: invalid UTF-8"):
            read_jsonl(tmp_path)

    def test_float_exact_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # not representable in short decimal
        g = AttributedGraph([[value], [1 / 3]], [(0, 1, [np.pi])])
        ds = Dataset("floats", {"train": [LabeledExample(g, "x")]}, ("x",))
        write_jsonl(ds, tmp_path / "f")
        back = read_jsonl(tmp_path / "f").split("train")[0].graph
        assert back.node_attrs[0, 0] == value
        assert back.edge_attrs[(0, 1)][0] == np.pi


MINIMAL_GXL = """
<gxl><graph id="g" edgemode="undirected">
  <node id="n0"><attr name="x"><float>0.5</float></attr><attr name="y"><float>1.5</float></attr></node>
  <node id="n1"><attr name="x"><float>2.0</float></attr><attr name="y"><float>0.0</float></attr>
      <attr name="ignored"><string>meta</string></attr></node>
  <edge from="n0" to="n1"/>
</graph></gxl>
"""


class TestGxl:
    def test_minimal_document(self):
        g = parse_gxl(MINIMAL_GXL, GXL_PRESETS["letter"])
        assert g.order == 2
        assert g.attr_dim == 3
        np.testing.assert_array_equal(g.node_attrs, [[0.5, 1.5, 0.0], [2.0, 0.0, 0.0]])
        np.testing.assert_array_equal(g.edge_attrs[(0, 1)], [0.0, 0.0, 1.0])

    def test_no_edges(self):
        doc = '<gxl><graph id="g"><node id="a"><attr name="x"><float>1</float></attr>' \
              '<attr name="y"><float>2</float></attr></node></graph></gxl>'
        g = parse_gxl(doc, GXL_PRESETS["letter"])
        assert g.order == 1
        assert g.n_edges == 0

    def test_unknown_edge_endpoint(self):
        doc = MINIMAL_GXL.replace('to="n1"', 'to="zzz"')
        with pytest.raises(DatasetFormatError, match="unknown node"):
            parse_gxl(doc, GXL_PRESETS["letter"])

    def test_missing_declared_attribute(self):
        cfg = GxlAttrConfig(node_attr_names=("x", "y", "z"))
        with pytest.raises(DatasetFormatError, match="missing declared"):
            parse_gxl(MINIMAL_GXL, cfg)

    def test_non_numeric_value(self):
        doc = MINIMAL_GXL.replace("<float>0.5</float>", "<string>abc</string>")
        with pytest.raises(DatasetFormatError, match="non-numeric"):
            parse_gxl(doc, GXL_PRESETS["letter"])

    def test_duplicate_undirected_edge_dropped(self):
        doc = MINIMAL_GXL.replace(
            '<edge from="n0" to="n1"/>', '<edge from="n0" to="n1"/><edge from="n1" to="n0"/>'
        )
        g = parse_gxl(doc, GXL_PRESETS["letter"])
        assert g.n_edges == 1

    def test_parse_determinism(self):
        a = parse_gxl(MINIMAL_GXL, GXL_PRESETS["letter"])
        b = parse_gxl(MINIMAL_GXL, GXL_PRESETS["letter"])
        assert a == b

    def test_edge_attr_names_consume_values(self):
        doc = """
        <gxl><graph id="g">
          <node id="a"><attr name="x"><float>1</float></attr></node>
          <node id="b"><attr name="x"><float>2</float></attr></node>
          <edge from="a" to="b"><attr name="w"><float>0.7</float></attr></edge>
        </graph></gxl>
        """
        cfg = GxlAttrConfig(node_attr_names=("x",), edge_attr_names=("w",))
        g = parse_gxl(doc, cfg)
        assert g.attr_dim == 2  # no implicit flag when edge attrs exist
        np.testing.assert_array_equal(g.edge_attrs[(0, 1)], [0.0, 0.7])

    @pytest.mark.parametrize("doc, key", [
        ({"node_attr_names": "xy"}, "node_attr_names"),
        ({"node_attr_names": ["x"], "edge_attr_names": [["w"]]}, "edge_attr_names"),
    ], ids=["bare-string", "unhashable"])
    def test_from_json_refuses_bad_name_lists(self, doc, key):
        # a bare string would read as one attribute per character
        with pytest.raises(ValidationError, match=f"'{key}': expected a list of hashable names"):
            GxlAttrConfig.from_json(doc)

    def test_flag_defaults(self):
        assert GxlAttrConfig(node_attr_names=("x",)).append_edge_flag
        assert not GxlAttrConfig(node_attr_names=("x",), edge_attr_names=("w",)).append_edge_flag


class TestCxl:
    def _write_gxl(self, tmp_path, name, x):
        (tmp_path / name).write_text(
            f'<gxl><graph id="g"><node id="a"><attr name="x"><float>{x}</float></attr>'
            f'<attr name="y"><float>0</float></attr></node></graph></gxl>'
        )

    def test_single_entry(self, tmp_path):
        self._write_gxl(tmp_path, "a.gxl", 1.0)
        doc = '<GraphCollection><letters><print file="a.gxl" class="A"/></letters></GraphCollection>'
        examples, classes = parse_cxl(doc, tmp_path, GXL_PRESETS["letter"])
        assert len(examples) == 1
        assert examples[0].y == "A"
        assert classes == ["A"]

    def test_classes_in_listing_order(self, tmp_path):
        for name in ("a.gxl", "b.gxl", "c.gxl"):
            self._write_gxl(tmp_path, name, 1.0)
        doc = ('<GraphCollection><x>'
               '<print file="a.gxl" class="Z"/>'
               '<print file="b.gxl" class="A"/>'
               '<print file="c.gxl" class="Z"/>'
               '</x></GraphCollection>')
        _, classes = parse_cxl(doc, tmp_path, GXL_PRESETS["letter"])
        assert classes == ["Z", "A"]

    def test_missing_file_names_it(self, tmp_path):
        doc = '<GraphCollection><x><print file="nope.gxl" class="A"/></x></GraphCollection>'
        with pytest.raises(DatasetFormatError, match="nope.gxl"):
            parse_cxl(doc, tmp_path, GXL_PRESETS["letter"])

    def test_empty_collection(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="no .file, class."):
            parse_cxl("<GraphCollection/>", tmp_path, GXL_PRESETS["letter"])

    def _write_listings(self, tmp_path, listings):
        for split, entries in listings.items():
            prints = "".join(f'<print file="{f}" class="{c}"/>' for f, c in entries)
            (tmp_path / f"{split}.cxl").write_text(
                f"<GraphCollection><x>{prints}</x></GraphCollection>")

    def test_read_dataset(self, tmp_path):
        for k in range(6):
            self._write_gxl(tmp_path, f"g{k}.gxl", float(k))
        self._write_listings(tmp_path, {
            "train": [("g0.gxl", "Z"), ("g1.gxl", "A"), ("g2.gxl", "Z")],
            "validation": [("g3.gxl", "M")],
            "test": [("g4.gxl", "A"), ("g5.gxl", "Z")]})
        ds = read_cxl_dataset(tmp_path, GXL_PRESETS["letter"], name="letters")
        assert ds.name == "letters"
        assert ds.class_set == ("Z", "A", "M")  # listing order, train first
        assert {split: len(exs) for split, exs in ds.splits.items()} == {
            "train": 3, "validation": 1, "test": 2}
        assert ds.attr_dim == 3  # x, y and the edge flag
        assert [ex.graph.node_attrs[0, 0] for ex in ds.split("test")] == [4.0, 5.0]
        assert ds.provenance["attr_config"] == {
            "node_attr_names": ["x", "y"], "edge_attr_names": [], "append_edge_flag": True}

    @pytest.mark.parametrize("bad", ["test.cxl", "b.gxl"])
    def test_undecodable_file_names_it(self, tmp_path, bad):
        for name in ("a.gxl", "b.gxl"):
            self._write_gxl(tmp_path, name, 1.0)
        self._write_listings(tmp_path, {"train": [("a.gxl", "A")], "validation": [("a.gxl", "A")],
                                        "test": [("a.gxl", "A"), ("b.gxl", "B")]})
        (tmp_path / bad).write_bytes(b"<gxl>\xff</gxl>")
        with pytest.raises(DatasetFormatError, match=rf"{bad}: invalid UTF-8"):
            read_cxl_dataset(tmp_path, GXL_PRESETS["letter"])

    def test_non_finite_attribute_names_its_file(self, tmp_path):
        self._write_gxl(tmp_path, "a.gxl", 1.0)
        self._write_gxl(tmp_path, "b.gxl", "nan")
        self._write_listings(tmp_path, {"train": [("a.gxl", "A")], "validation": [("a.gxl", "A")],
                                        "test": [("a.gxl", "A"), ("b.gxl", "B")]})
        with pytest.raises(DatasetFormatError, match=r"b\.gxl: graph attributes must be finite"):
            read_cxl_dataset(tmp_path, GXL_PRESETS["letter"])


class TestSyntheticGenerator:
    SPEC = dict(order_range=(2, 4), attr_dim=2, planted_order=3,
                planted_margin=0.4, edge_density=0.6, attribute_scale=1.0)

    def test_every_example_clears_the_margin(self):
        spec = SyntheticSpec(n_examples={"train": 20, "test": 10}, seed=5, **self.SPEC)
        ds, planted = generate_synthetic(spec)
        wn = weight_norm(planted)
        for split in ("train", "test"):
            for ex in ds.split(split):
                y = 1 if ex.y == "pos" else -1
                assert y * evaluate(planted, ex.graph) / wn >= spec.planted_margin

    def test_certificate_matches_recomputation(self):
        spec = SyntheticSpec(n_examples={"train": 15}, seed=6, **self.SPEC)
        ds, planted = generate_synthetic(spec)
        cert = ds.provenance["margin_certificate"]
        assert cert >= spec.planted_margin
        assert margin_certificate(ds, planted) == pytest.approx(cert)

    def test_certificate_of_zero_planted_model_is_degenerate(self):
        planted = SublinearModel(Representation.zeros(2, 1), 0.5, EXACT)
        with pytest.raises(DegenerateModelError):
            margin_certificate(small_dataset(), planted)

    def test_planted_model_has_zero_training_errors(self):
        spec = SyntheticSpec(n_examples={"train": 15}, seed=7, **self.SPEC)
        ds, planted = generate_synthetic(spec)
        for ex in binary_examples(ds, "train"):
            assert classify(planted, ex.graph) == ex.y

    def test_both_classes_in_every_split(self):
        spec = SyntheticSpec(n_examples={"train": 12, "validation": 6, "test": 6},
                             seed=8, **self.SPEC)
        ds, _ = generate_synthetic(spec)
        for split in ("train", "validation", "test"):
            assert len({ex.y for ex in ds.split(split)}) == 2

    def test_determinism(self):
        spec = SyntheticSpec(n_examples={"train": 10}, seed=9, **self.SPEC)
        ds1, _ = generate_synthetic(spec)
        ds2, _ = generate_synthetic(spec)
        assert ds1 == ds2

    def test_infeasible_margin_raises(self):
        spec = SyntheticSpec(n_examples={"train": 5}, order_range=(2, 3), attr_dim=1,
                             planted_order=2, planted_margin=500.0, edge_density=0.5,
                             attribute_scale=0.5, seed=1)
        with pytest.raises(InfeasibleSpecError):
            generate_synthetic(spec)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_examples={"train": 5}, order_range=(0, 3), attr_dim=1,
                          planted_order=2, planted_margin=0.1, edge_density=0.5)
        with pytest.raises(ValidationError):
            SyntheticSpec(n_examples={"train": 5}, order_range=(2, 12), attr_dim=1,
                          planted_order=2, planted_margin=0.1, edge_density=0.5)

    def test_planted_order_beyond_enumeration_rejected(self):
        assert SyntheticSpec(n_examples={"train": 5}, **{**self.SPEC, "planted_order": 9})
        with pytest.raises(ValidationError, match="planted_order"):
            SyntheticSpec(n_examples={"train": 5}, **{**self.SPEC, "planted_order": 10})

    def test_spec_json_round_trip(self):
        spec = SyntheticSpec(n_examples={"train": 5}, seed=3, **self.SPEC)
        assert SyntheticSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("key, value", [
        ("attr_dim", 1.7), ("planted_order", 2.9), ("seed", True), ("seed", 3.0),
        ("n_examples", {"train": 4.5}), ("n_examples", {"train": True}),
        ("order_range", [2, 3.5]), ("order_range", [True, 3]),
    ], ids=["attr_dim-float", "planted_order-float", "seed-bool", "seed-float",
            "n_examples-float", "n_examples-bool", "order_range-float", "order_range-bool"])
    def test_spec_json_integers_are_not_truncated(self, key, value):
        doc = SyntheticSpec(n_examples={"train": 5}, seed=3, **self.SPEC).to_json()
        with pytest.raises(ValidationError, match=repr(key)):
            SyntheticSpec.from_json({**doc, key: value})


class TestDataset:
    def test_class_membership_validated(self):
        g = AttributedGraph([[1.0]])
        with pytest.raises(ValidationError):
            Dataset("x", {"train": [LabeledExample(g, "mystery")]}, ("a",))

    def test_missing_split(self):
        with pytest.raises(ValidationError):
            small_dataset().split("validation")

    def test_binary_examples_default_positive(self):
        ds = small_dataset()
        encoded = binary_examples(ds, "train")
        assert [ex.y for ex in encoded] == [1, -1]
