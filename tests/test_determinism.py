"""Tests of the determinism subsystem: stable helpers, lint, harness."""

from __future__ import annotations

import textwrap

import pytest

from repro.determinism import (
    canonical_kb_lines,
    canonical_kb_text,
    first_divergence,
    sorted_items,
    sorted_set,
    stable_hash,
    stable_str_key,
    stage_of_line,
)
from repro.determinism.lint import PRAGMA, lint_file
from repro.kb import Entity, Relation, Triple, TripleStore


class TestStableHash:
    def test_pinned_value(self):
        # A contract, not an implementation detail: shard assignment and
        # feature hashing depend on this exact mapping.
        assert stable_hash("alpha") == stable_hash("alpha")
        assert stable_hash("alpha") == 11099342189553124947

    def test_strings_hash_their_bytes(self):
        assert stable_hash("x") != stable_hash("'x'")

    def test_non_strings_hash_their_repr(self):
        assert stable_hash(("a", 1)) == stable_hash(repr(("a", 1)))

    def test_spread(self):
        values = {stable_hash(f"key-{i}") % 16 for i in range(200)}
        assert len(values) == 16  # every bucket reachable


class TestCanonicalIteration:
    def test_stable_str_key(self):
        assert stable_str_key("abc") == "abc"
        assert stable_str_key(Entity("world:X")) == repr(Entity("world:X"))

    def test_sorted_items_is_key_sorted(self):
        mapping = {"b": 2, "a": 1, "c": 3}
        assert sorted_items(mapping) == [("a", 1), ("b", 2), ("c", 3)]

    def test_sorted_items_with_entity_keys(self):
        a, b = Entity("world:A"), Entity("world:B")
        assert sorted_items({b: 1, a: 2}) == [(a, 2), (b, 1)]

    def test_sorted_set(self):
        assert sorted_set({"c", "a", "b"}) == ["a", "b", "c"]
        assert sorted_set(frozenset({3, 1, 2}), key=lambda x: x) == [1, 2, 3]


class TestCanonicalSerialization:
    @staticmethod
    def _store() -> TripleStore:
        store = TripleStore()
        store.add(Triple(Entity("world:B"), Relation("rel:r"), Entity("world:C"),
                         confidence=0.8, source="infobox"))
        store.add(Triple(Entity("world:A"), Relation("rel:r"), Entity("world:C")))
        return store

    def test_lines_are_sorted_and_carry_provenance(self):
        lines = canonical_kb_lines(self._store())
        assert lines == sorted(lines)
        assert any("conf=0.8" in line and "src=infobox" in line for line in lines)

    def test_insertion_order_does_not_matter(self):
        forward = self._store()
        backward = TripleStore(reversed(list(forward)))
        assert canonical_kb_text(forward) == canonical_kb_text(backward)

    def test_empty_store(self):
        assert canonical_kb_lines(TripleStore()) == []
        assert canonical_kb_text(TripleStore()) == ""


class TestLint:
    @staticmethod
    def _lint(source: str, tmp_path) -> list:
        path = tmp_path / "snippet.py"
        path.write_text(textwrap.dedent(source))
        return lint_file(str(path))

    # ----------------------------------------------------- true positives

    def test_for_loop_over_set_literal(self, tmp_path):
        findings = self._lint(
            """
            items = {"a", "b"}
            for item in items:
                print(item)
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_for_loop_over_set_call(self, tmp_path):
        findings = self._lint(
            """
            def f(rows):
                seen = set(rows)
                for row in seen:
                    yield row
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_comprehension_over_set_annotation(self, tmp_path):
        findings = self._lint(
            """
            def f(names: set[str]) -> list[str]:
                return [n.upper() for n in names]
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET002"]

    def test_list_materializes_set(self, tmp_path):
        findings = self._lint(
            """
            def f():
                return list(frozenset(["a"]))
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET003"]

    def test_set_operator_expression(self, tmp_path):
        findings = self._lint(
            """
            def f(a: set, b: set):
                for x in a & b:
                    print(x)
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_self_attribute_set(self, tmp_path):
        findings = self._lint(
            """
            class C:
                def __init__(self):
                    self.members = set()

                def walk(self):
                    return [m for m in self.members]
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET002"]

    def test_builtin_hash_flagged(self, tmp_path):
        findings = self._lint(
            """
            def shard(key, n):
                return hash(key) % n
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET004"]

    def test_known_set_returning_method(self, tmp_path):
        findings = self._lint(
            """
            def f(store):
                for entity in store.entities():
                    print(entity)
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_def_time_constructed_default_flagged(self, tmp_path):
        findings = self._lint(
            """
            def build(world, config: BuildConfig = BuildConfig()):
                return config
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET005"]

    def test_def_time_default_in_kwonly_args_flagged(self, tmp_path):
        findings = self._lint(
            """
            def build(world, *, config=WikiConfig(), verbose=False):
                return config
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET005"]

    # ---------------------------------------------------- false positives

    def test_sorted_set_is_clean(self, tmp_path):
        assert self._lint(
            """
            items = {"a", "b"}
            for item in sorted(items):
                print(item)
            """,
            tmp_path,
        ) == []

    def test_order_insensitive_reducers_are_clean(self, tmp_path):
        assert self._lint(
            """
            def f(values: set[int]) -> int:
                total = sum(v for v in values)
                lowest = min(v for v in values)
                return total + lowest + len(values)
            """,
            tmp_path,
        ) == []

    def test_set_comprehension_is_clean(self, tmp_path):
        assert self._lint(
            """
            def f(values: set[str]):
                return {v.lower() for v in values}
            """,
            tmp_path,
        ) == []

    def test_dict_iteration_is_clean(self, tmp_path):
        assert self._lint(
            """
            def f(mapping: dict) -> list:
                return [k for k in mapping]
            """,
            tmp_path,
        ) == []

    def test_list_iteration_is_clean(self, tmp_path):
        assert self._lint(
            """
            def f(rows):
                ordered = list(rows)
                for row in ordered:
                    print(row)
            """,
            tmp_path,
        ) == []

    def test_pragma_allowlists_a_site(self, tmp_path):
        assert self._lint(
            f"""
            counts = {{}}
            for item in {{"a", "b"}}:  # {PRAGMA} -- membership only
                counts[item] = 1
            """,
            tmp_path,
        ) == []

    def test_none_sentinel_default_is_clean(self, tmp_path):
        assert self._lint(
            """
            def build(world, config=None):
                if config is None:
                    config = BuildConfig()
                return config
            """,
            tmp_path,
        ) == []

    def test_plain_immutable_defaults_are_clean(self, tmp_path):
        assert self._lint(
            """
            def f(x=0, label="kb", flags=(), scale=1.5, mode=None):
                return x
            """,
            tmp_path,
        ) == []

    def test_lowercase_call_default_not_flagged(self, tmp_path):
        # Factory-function defaults (tuple(), frozenset()) return fresh or
        # immutable values; DET005 targets CamelCase constructor calls.
        assert self._lint(
            """
            def f(items=tuple(), names=frozenset()):
                return items, names
            """,
            tmp_path,
        ) == []

    def test_rebound_name_is_not_set_like(self, tmp_path):
        assert self._lint(
            """
            def f(rows):
                items = set(rows)
                items = sorted(items)
                for item in items:
                    print(item)
            """,
            tmp_path,
        ) == []

    def test_repo_tree_is_clean(self):
        from repro.determinism.lint import lint_paths
        import os

        package_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src", "repro",
        )
        assert lint_paths([package_root]) == []


class TestCrossModeReporting:
    def test_default_mode_matrix_covers_every_strategy(self):
        from repro.determinism import CROSS_MODES

        labels = [mode.label for mode in CROSS_MODES]
        assert labels == [
            "serial", "shards4", "thread2", "process2",
            "steal-thread2", "steal-process2",
            "corpus-thread2", "corpus-process2", "steal-corpus-process2",
        ]
        by_label = {mode.label: mode for mode in CROSS_MODES}
        assert by_label["shards4"].shards == 4
        assert by_label["thread2"].backend == "thread"
        assert by_label["process2"].workers == 2
        # The steal modes run work-stealing dispatch over the extraction
        # worker pool.
        for label in ("steal-thread2", "steal-process2"):
            mode = by_label[label]
            assert mode.schedule == "steal"
            assert mode.workers == 2
        # Static modes leave the schedule at the CLI default.
        assert by_label["serial"].schedule is None
        # The corpus modes push page payloads through the segment-backed
        # file transport instead of the pickled broadcast.
        for label in (
            "corpus-thread2", "corpus-process2", "steal-corpus-process2"
        ):
            mode = by_label[label]
            assert mode.corpus_transport == "file"
            assert mode.workers == 2
        assert by_label["steal-corpus-process2"].schedule == "steal"
        # Everything else leaves the transport at the CLI default (auto).
        assert by_label["serial"].corpus_transport is None

    def test_report_describe_ok_and_divergent(self):
        from repro.determinism import CrossModeReport, Divergence

        ok = CrossModeReport(ok=True, modes=["serial", "shards4"], triples=10)
        assert "cross-mode deterministic" in ok.describe()
        assert "serial, shards4" in ok.describe()
        bad = CrossModeReport(
            ok=False,
            modes=["serial", "thread2"],
            diverging_mode="thread2",
            divergence=Divergence(0, 1, "line a", "line b", "stage"),
        )
        text = bad.describe()
        assert "NOT cross-mode deterministic" in text
        assert "thread2" in text

    def test_too_few_modes_rejected(self):
        from repro.determinism import BuildMode, check_cross_mode

        with pytest.raises(ValueError):
            check_cross_mode(modes=[BuildMode("serial")])


class TestHarnessReporting:
    def test_first_divergence_differing_line(self):
        a = ["<world:A> <<rel:r>> <world:B> .", "x"]
        b = ["<world:A> <<rel:r>> <world:C> .", "x"]
        divergence = first_divergence(a, b, 0, 1)
        assert divergence.run_a == 0 and divergence.run_b == 1
        assert divergence.line_a == a[0]
        assert divergence.line_b == b[0]

    def test_first_divergence_prefix(self):
        a = ["line-1"]
        b = ["line-1", "line-2"]
        divergence = first_divergence(a, b, 0, 3)
        assert divergence.line_a is None
        assert divergence.line_b == "line-2"

    def test_stage_attribution(self):
        assert stage_of_line(
            "<world:A> <<rel:bornIn>> <world:B> . # conf=0.95 src=infobox"
        ) == "pipeline.extract.infobox"
        assert stage_of_line(
            "<world:A> <<rel:bornIn>> <world:B> . # src=surface-patterns"
        ) == "pipeline.extract.sentences"
        assert stage_of_line(
            "<world:A> <<rdf:type>> <cls:person> ."
        ) == "pipeline.taxonomy"
        assert stage_of_line(
            '<world:A> <<rdfs:label>> "Ada"@de . # conf=0.95 src=Ada'
        ) == "pipeline.multilingual"
        assert stage_of_line(None) == "unknown"

    def test_check_determinism_validates_arguments(self):
        from repro.determinism import check_determinism

        with pytest.raises(ValueError):
            check_determinism(runs=1)
        with pytest.raises(ValueError):
            check_determinism(runs=2, hash_seeds=[1])
        with pytest.raises(ValueError):
            check_determinism(runs=2, hash_seeds=[1, 1])
