"""Tests for repro.kb.terms."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.kb import (
    Entity,
    Literal,
    Relation,
    decimal_literal,
    integer_literal,
    string_literal,
    year_literal,
)


class TestEntity:
    def test_identity_equality(self):
        assert Entity("world:Jobs") == Entity("world:Jobs")
        assert Entity("world:Jobs") != Entity("world:Woz")

    def test_hashable(self):
        assert len({Entity("a:x"), Entity("a:x"), Entity("a:y")}) == 2

    def test_local_name_strips_namespace(self):
        assert Entity("world:Steve_Jobs").local_name == "Steve_Jobs"

    def test_local_name_without_namespace(self):
        assert Entity("Steve").local_name == "Steve"

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Entity("")

    def test_str_is_id(self):
        assert str(Entity("world:X")) == "world:X"


class TestRelation:
    def test_distinct_from_entity_with_same_id(self):
        assert Relation("x:a") != Entity("x:a")

    def test_local_name(self):
        assert Relation("rel:bornIn").local_name == "bornIn"

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Relation("")


class TestLiteral:
    def test_default_is_string(self):
        literal = Literal("hello")
        assert literal.datatype == "string"
        assert literal.to_python() == "hello"

    def test_integer_conversion(self):
        assert integer_literal(42).to_python() == 42

    def test_year_conversion(self):
        assert year_literal(1955).to_python() == 1955

    def test_decimal_conversion(self):
        assert decimal_literal(2.5).to_python() == 2.5

    def test_language_tag(self):
        literal = string_literal("München", "de")
        assert literal.lang == "de"
        assert str(literal) == '"München"@de'

    def test_language_tag_only_on_strings(self):
        with pytest.raises(ValueError):
            Literal("5", "integer", lang="en")

    def test_unknown_datatype_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", "floatish")

    def test_typed_str_rendering(self):
        assert str(Literal("5", "integer")) == '"5"^^integer'

    def test_equality_includes_lang(self):
        assert string_literal("a", "en") != string_literal("a", "de")
        assert string_literal("a") == string_literal("a")


_TERMS = [
    Entity("world:Steve_Jobs"),
    Relation("rel:bornIn"),
    Literal("Paris", "string", "fr"),
    year_literal(1955),
]
#: The same terms as constructor calls, for a child interpreter to build.
_TERMS_SOURCE = "[" + ", ".join(map(repr, _TERMS)) + "]"


def _python_with_hash_seed(seed: int, code: str, stdin: bytes = b"") -> bytes:
    """Run ``code`` in a fresh interpreter under ``PYTHONHASHSEED=seed``."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, env=env, capture_output=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout


class TestCachedHash:
    """Terms hash once, at construction, to exactly the dataclass hash."""

    def test_cached_hash_equals_the_dataclass_hash(self):
        assert hash(Entity("a:x")) == hash(("a:x",))
        assert hash(Relation("r:p")) == hash(("r:p",))
        assert hash(Literal("v", "string", "en")) == hash(("v", "string", "en"))
        assert hash(year_literal(1955)) == hash(("1955", "year", None))

    def test_cache_is_invisible_to_equality_and_repr(self):
        assert repr(Entity("a:x")) == "Entity('a:x')"
        assert repr(Literal("v")) == "Literal('v', 'string', lang=None)"
        assert Entity("a:x") != Relation("a:x")

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_copies_keep_equality_and_hash(self, duplicate):
        for term in _TERMS:
            twin = duplicate(term)
            assert twin == term and hash(twin) == hash(term)
            assert {term: 1}[twin] == 1

    def test_pickle_under_another_hash_seed_rebuilds_the_hash(self):
        # Pickled under one salt and loaded under another: a shipped cached
        # number would hash the loaded term into the wrong dict/set slot.
        pickled = _python_with_hash_seed(
            1,
            "import pickle, sys\n"
            "from repro.kb import Entity, Literal, Relation\n"
            f"sys.stdout.buffer.write(pickle.dumps({_TERMS_SOURCE}))\n",
        )
        verdict = _python_with_hash_seed(
            2,
            "import pickle, sys\n"
            "from repro.kb import Entity, Literal, Relation\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = {_TERMS_SOURCE}\n"
            "assert loaded == fresh\n"
            "assert [hash(t) for t in loaded] == [hash(t) for t in fresh]\n"
            "index = {t: i for i, t in enumerate(fresh)}\n"
            "assert [index[t] for t in loaded] == list(range(len(fresh)))\n"
            "assert set(loaded) == set(fresh)\n"
            "assert all(t in set(fresh) for t in loaded)\n"
            "print('ok')\n",
            stdin=pickled,
        )
        assert verdict.strip() == b"ok"
        # And in this process, under yet another salt.
        loaded = pickle.loads(pickled)
        assert loaded == _TERMS
        assert [hash(t) for t in loaded] == [hash(t) for t in _TERMS]
        assert set(loaded) == set(_TERMS)
