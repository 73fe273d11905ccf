"""Unit tests for RDF terms."""

import copy
import gc
import pickle
import sys
import threading

import pytest

from repro.errors import RDFError
from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Variable,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    is_concrete,
    term_sort_key,
)


class TestIRI:
    def test_n3(self):
        assert IRI("http://ex.org/a").n3() == "<http://ex.org/a>"

    def test_empty_rejected(self):
        with pytest.raises(RDFError):
            IRI("")

    def test_local_name_hash(self):
        assert IRI("http://ex.org/v#price").local_name() == "price"

    def test_local_name_slash(self):
        assert IRI("http://ex.org/v/price").local_name() == "price"

    def test_local_name_opaque(self):
        assert IRI("urn:thing").local_name() == "urn:thing"

    def test_equality_and_hash(self):
        assert IRI("urn:a") == IRI("urn:a")
        assert hash(IRI("urn:a")) == hash(IRI("urn:a"))
        assert IRI("urn:a") != IRI("urn:b")


class TestBNode:
    def test_n3(self):
        assert BNode("b0").n3() == "_:b0"

    def test_empty_rejected(self):
        with pytest.raises(RDFError):
            BNode("")


class TestLiteral:
    def test_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_typed(self):
        assert Literal("5", datatype=XSD_INTEGER).n3() == f'"5"^^<{XSD_INTEGER}>'

    def test_datatype_and_language_conflict(self):
        with pytest.raises(RDFError):
            Literal("x", datatype=XSD_INTEGER, language="en")

    def test_escaping(self):
        assert Literal('a"b\nc').n3() == '"a\\"b\\nc"'

    @pytest.mark.parametrize(
        "value,datatype,expected",
        [
            (42, XSD_INTEGER, 42),
            (2.5, XSD_DOUBLE, 2.5),
            (True, XSD_BOOLEAN, True),
        ],
    )
    def test_from_python_round_trip(self, value, datatype, expected):
        literal = Literal.from_python(value)
        assert literal.datatype == datatype
        assert literal.python_value() == expected

    def test_from_python_string(self):
        literal = Literal.from_python("plain")
        assert literal.datatype is None
        assert literal.python_value() == "plain"

    def test_from_python_rejects_other(self):
        with pytest.raises(RDFError):
            Literal.from_python(object())  # type: ignore[arg-type]

    def test_invalid_integer_lexical(self):
        with pytest.raises(RDFError):
            Literal("abc", datatype=XSD_INTEGER).python_value()

    def test_invalid_boolean_lexical(self):
        with pytest.raises(RDFError):
            Literal("maybe", datatype=XSD_BOOLEAN).python_value()

    def test_boolean_numeric_forms(self):
        assert Literal("1", datatype=XSD_BOOLEAN).python_value() is True
        assert Literal("0", datatype=XSD_BOOLEAN).python_value() is False

    def test_is_numeric(self):
        assert Literal("5", datatype=XSD_INTEGER).is_numeric()
        assert not Literal("5").is_numeric()


class TestVariable:
    def test_n3(self):
        assert Variable("x").n3() == "?x"

    def test_sigil_rejected(self):
        with pytest.raises(RDFError):
            Variable("?x")

    def test_empty_rejected(self):
        with pytest.raises(RDFError):
            Variable("")


def test_is_concrete():
    assert is_concrete(IRI("urn:a"))
    assert is_concrete(Literal("x"))
    assert not is_concrete(Variable("v"))


def test_term_sort_key_orders_types():
    terms = [Literal("z"), BNode("a"), IRI("urn:z")]
    ordered = sorted(terms, key=term_sort_key)
    assert isinstance(ordered[0], IRI)
    assert isinstance(ordered[1], BNode)
    assert isinstance(ordered[2], Literal)


def test_term_sort_key_rejects_variables():
    with pytest.raises(RDFError):
        term_sort_key(Variable("v"))  # type: ignore[arg-type]


class TestInterning:
    """Terms are hash-consed: one live instance per value, so equality
    is identity and dict/set lookups hash and compare in C."""

    def test_positional_and_keyword_forms_are_one_object(self):
        assert IRI("urn:a") is IRI(value="urn:a")
        assert BNode("b0") is BNode(label="b0")
        assert Variable("x") is Variable(name="x")
        assert Literal("5", XSD_INTEGER) is Literal(lexical="5", datatype=XSD_INTEGER)
        assert Literal("hi", None, "en") is Literal("hi", language="en")

    def test_distinct_values_are_distinct_objects(self):
        assert IRI("urn:a") is not IRI("urn:b")
        assert Literal("5") is not Literal("5", datatype=XSD_INTEGER)
        assert Literal("hi", language="en") is not Literal("hi", language="de")
        # One table per class: equal strings of different kinds never meet.
        assert IRI("x") is not BNode("x")
        assert Variable("x") != Literal("x")

    def test_from_python_returns_the_interned_literal(self):
        assert Literal.from_python(1) is Literal("1", datatype=XSD_INTEGER)
        assert Literal.from_python(True) is Literal("true", datatype=XSD_BOOLEAN)
        assert Literal.from_python("s") is Literal("s")

    @pytest.mark.parametrize(
        "term",
        [IRI("urn:a"), BNode("b0"), Literal("2.5", datatype=XSD_DOUBLE), Variable("v")],
        ids=["iri", "bnode", "literal", "variable"],
    )
    def test_pickle_and_copies_return_the_interned_instance(self, term):
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert copy.deepcopy({term: [term]}) == {term: [term]}

    def test_no_python_level_eq_or_hash(self):
        for cls in (IRI, BNode, Literal, Variable):
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__

    def test_reconstruction_keeps_the_cache_slots(self):
        term = IRI("urn:cached")
        object.__setattr__(term, "_size", 11)
        assert IRI("urn:cached")._size == 11

    def test_terms_stay_immutable(self):
        with pytest.raises(AttributeError):
            IRI("urn:a").value = "urn:b"  # type: ignore[misc]

    @pytest.mark.parametrize(
        "cls,args",
        [
            (IRI, ("",)),
            (BNode, ("",)),
            (Variable, ("?x",)),
            (Literal, ("x", XSD_INTEGER, "en")),
        ],
        ids=["iri", "bnode", "variable", "literal"],
    )
    def test_rejected_value_leaves_nothing_in_the_table(self, cls, args):
        key = args if cls is Literal else args[0]
        with pytest.raises(RDFError):
            cls(*args)
        assert key not in cls._instances
        with pytest.raises(RDFError):
            cls(*args)

    def test_threads_agree_on_one_instance_per_value(self):
        values = [f"urn:thread-race/{index}" for index in range(1000)]
        start = threading.Barrier(8)
        results = [None] * 8

        def build(slot):
            start.wait(timeout=60)
            results[slot] = [IRI(value) for value in values]

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often enough to race
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is not None for result in results)
        for column in zip(*results):
            assert len({id(term) for term in column}) == 1

    def test_unreferenced_term_is_dropped_from_the_table(self):
        value = "urn:interning/ephemeral"
        term = IRI(value)
        assert IRI._instances.get(value) is term
        del term
        gc.collect()
        assert value not in IRI._instances
