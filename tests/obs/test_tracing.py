"""Span tracing: nesting, exception safety, counter deltas, bounds, export."""

from __future__ import annotations

import json

import pytest

from repro.obs import tracing
from repro.obs.tracing import Tracer, activated, current_tracer, note, span
from repro.storage.metrics import MetricsRegistry


class TestNesting:
    def test_parent_child_structure(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                with tracer.span("leaf"):
                    pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == ["inner_a", "inner_b"]
        assert [g.name for g in outer.children[1].children] == ["leaf"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_attrs_and_duration(self):
        tracer = Tracer()
        with tracer.span("work", element=7, size=100) as node:
            pass
        assert node.attrs == {"element": 7, "size": 100}
        assert node.duration_s >= 0.0
        # A parent's duration covers its children.
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.duration_s >= inner.duration_s


class TestExceptionSafety:
    def test_error_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        node = tracer.roots[0]
        assert node.status == "error:ValueError"
        assert node.duration_s >= 0.0
        # The stack unwound: new spans are roots again.
        with tracer.span("after"):
            pass
        assert [root.name for root in tracer.roots] == ["fails", "after"]

    def test_error_counted_in_summary(self):
        tracer = Tracer()
        for _ in range(2):
            with pytest.raises(RuntimeError):
                with tracer.span("flaky"):
                    raise RuntimeError
        assert tracer.summary()["flaky"]["errors"] == 2

    def test_parent_survives_child_error(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            try:
                with tracer.span("inner"):
                    raise KeyError
            except KeyError:
                pass
        assert outer.status == "ok"
        assert outer.children[0].status == "error:KeyError"


class TestCounterDeltas:
    """Counters are pushed: a registry whose ``tracer`` is set charges the
    innermost open span with every increment, as it takes it, and a
    closing span adds its counters to its parent's.  (The snapshot-and-
    diff accounting this replaced is ``tests/util/oracle_tracing.py``;
    ``tests/obs/test_tracing_oracle.py`` holds the two equal.)"""

    def test_deltas_captured_at_exit(self):
        registry = MetricsRegistry()
        registry.inc("bytes_read", 100)  # before the binding: nobody's
        tracer = Tracer()
        registry.tracer = tracer
        with tracer.span("load") as node:
            registry.inc("bytes_read", 40)
            registry.add_counts({"disk_seeks": 2, "bytes_read": 1})
        registry.inc("bytes_read", 7)  # no span open: charged nowhere
        assert node.counters == {"bytes_read": 41, "disk_seeks": 2}
        assert registry.get("bytes_read") == 148

    def test_zero_deltas_omitted(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        registry.tracer = tracer
        with tracer.span("idle") as node:
            registry.add_counts({"bytes_read": 0})
            registry.inc("loads", 0)
        assert node.counters == {}
        # The registry still creates a counter charged zero.
        assert registry.io_stats() == {"bytes_read": 0, "loads": 0}

    def test_nested_deltas_are_per_span(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        registry.tracer = tracer
        with tracer.span("outer") as outer:
            registry.inc("loads", 1)
            with tracer.span("inner") as inner:
                registry.inc("loads", 5)
            with tracer.span("idle") as idle:
                pass
        assert inner.counters == {"loads": 5}
        assert idle.counters == {}
        assert outer.counters == {"loads": 6}  # includes the child's work

    def test_unbound_registries_charge_nothing(self):
        bound, unbound = MetricsRegistry(), MetricsRegistry()
        tracer = Tracer()
        bound.tracer = tracer
        with tracer.span("request") as node:
            unbound.inc("buffer_evictions")
            bound.inc("loads")
        bound.tracer = None
        with tracer.span("after") as after:
            bound.inc("loads")
        assert node.counters == {"loads": 1}
        assert after.counters == {}

    def test_dropped_spans_still_roll_up(self):
        registry = MetricsRegistry()
        tracer = Tracer(max_spans=1)
        registry.tracer = tracer
        with tracer.span("kept") as kept:
            with tracer.span("dropped"):
                registry.inc("loads", 3)
        assert tracer.dropped == 1 and kept.children == []
        assert kept.counters == {"loads": 3}


class TestBoundedTree:
    def test_tree_stops_growing_at_cap(self):
        tracer = Tracer(max_spans=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.roots) == 3
        assert tracer.dropped == 7

    def test_summary_counts_dropped_spans(self):
        tracer = Tracer(max_spans=2)
        for _ in range(50):
            with tracer.span("hot"):
                pass
        assert tracer.summary()["hot"]["count"] == 50

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestJsonlExport:
    def test_parent_links_and_fields(self):
        tracer = Tracer()
        with tracer.span("outer", kind="x"):
            with tracer.span("inner"):
                pass
        header, *records = [
            json.loads(line) for line in tracer.to_jsonl().splitlines()
        ]
        assert header["schema"] == "repro-spans"
        assert header["version"] == tracing.SPAN_SCHEMA_VERSION
        assert header["spans"] == 2
        assert len(records) == 2
        by_name = {record["name"]: record for record in records}
        assert by_name["outer"]["parent"] == -1
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["attrs"] == {"kind": "x"}
        assert by_name["inner"]["status"] == "ok"

    def test_ids_are_stable_across_export_order(self):
        # Ids are assigned at span open, so shuffling the exported lines
        # loses nothing: the tree reconstructs from id/parent alone.
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        records = [
            json.loads(line)
            for line in tracer.to_jsonl().splitlines()[1:]
        ]
        records.reverse()
        by_id = {record["id"]: record for record in records}
        children = {}
        for record in records:
            children.setdefault(record["parent"], []).append(record["name"])
        root = by_id[0]
        assert root["name"] == "a"
        assert sorted(children[root["id"]]) == ["b", "c"]

    def test_header_counts_dropped_spans(self):
        tracer = Tracer(max_spans=1)
        for _ in range(3):
            with tracer.span("s"):
                pass
        header = json.loads(tracer.to_jsonl().splitlines()[0])
        assert header["spans"] == 1
        assert header["dropped"] == 2

    def test_write_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        path = tmp_path / "spans.jsonl"
        tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one span
        assert json.loads(lines[0])["schema"] == "repro-spans"
        assert json.loads(lines[1])["name"] == "only"

    def test_render_mentions_notes(self):
        tracer = Tracer()
        with tracer.span("q") as node:
            node.note("intranode_loads", 3)
        assert "intranode_loads=3" in tracer.render()


class TestFoldedExport:
    def test_paths_join_with_semicolons_and_aggregate(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("child"):  # same stack: folds into one line
                pass
        lines = tracer.to_folded().splitlines()
        paths = {line.rsplit(" ", 1)[0] for line in lines}
        assert paths == {"root", "root;child", "root;child;leaf"}

    def test_weights_are_nonnegative_self_time_microseconds(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        for line in tracer.to_folded().splitlines():
            assert int(line.rsplit(" ", 1)[1]) >= 0

    def test_write_folded(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        path = tmp_path / "stacks.folded"
        tracer.write_folded(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.split(" ")[0] == "only"

    def test_empty_tracer_writes_empty_file(self, tmp_path):
        path = tmp_path / "stacks.folded"
        Tracer().write_folded(path)
        assert path.read_text() == ""


class TestModuleLevelHelpers:
    def test_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with span("ignored"):
            note("ignored_note")
        assert current_tracer() is None

    def test_activated_routes_spans(self):
        tracer = Tracer()
        with activated(tracer):
            assert current_tracer() is tracer
            with span("routed", key=1):
                note("loads", 2)
        assert current_tracer() is None
        assert tracer.roots[0].name == "routed"
        assert tracer.roots[0].notes == {"loads": 2}

    def test_activation_nests(self):
        outer_tracer, inner_tracer = Tracer(), Tracer()
        with activated(outer_tracer):
            with activated(inner_tracer):
                with span("inner_only"):
                    pass
            with span("outer_only"):
                pass
        assert [r.name for r in inner_tracer.roots] == ["inner_only"]
        assert [r.name for r in outer_tracer.roots] == ["outer_only"]


class TestStoreIntegration:
    def test_snode_loads_attributed_to_spans(self, tmp_path):
        from repro.snode.build import build_snode
        from repro.webdata.generator import GeneratorConfig, generate_web

        repository = generate_web(GeneratorConfig(num_pages=400, seed=5))
        tracer = Tracer()
        with activated(tracer):
            build = build_snode(repository, tmp_path / "sn")
            build.store.drop_buffers()
            with tracer.span("query"):
                build.store.out_neighbors(0)
        build.store.close()
        query_span = tracer.roots[-1]
        assert query_span.name == "query"
        assert query_span.notes.get("intranode_loads", 0) >= 1
