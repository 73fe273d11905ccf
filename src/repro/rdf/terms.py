"""RDF term types: IRIs, literals, blank nodes, and query variables.

Terms are immutable, hash-consed value objects: each constructor returns
the single live instance for its value, so equal terms are the same
object and every dict or set keyed on terms hashes and compares by
identity, in C.  Literals carry an optional datatype IRI or language tag
and expose a :meth:`Literal.python_value` conversion used by SPARQL
expression evaluation and aggregation.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field, fields
from typing import Union

from repro.errors import RDFError

#: Hidden per-instance cache slot shared by the term dataclasses below.
#: Terms are immutable value objects, so derived values (serialized-size
#: estimates, interned sort keys) are computed once and pinned to the
#: instance; the field is no constructor argument and is excluded from
#: __repr__, so the public value semantics are unchanged.  See
#: docs/performance.md.
def _cache_slot():
    return field(default=None, init=False, repr=False, compare=False)


# -- hash-consing ---------------------------------------------------------------
#
# Every value class below keeps one weak-valued table from its value key
# to the single live instance.  Its ``__new__`` reads the table's backing
# dict without a lock (a dict lookup plus a weakref call); only a miss
# validates, takes the lock, re-checks and publishes, so threads racing
# to build the same value agree on one instance.  A value nothing references
# any more drops out of its table.  Nothing may build an instance except
# through the class constructor: equality *is* identity.

_INTERN_LOCK = threading.Lock()


class Interned:
    """Base of the hash-consed value classes.

    Subclasses are ``frozen``, ``slots``, ``init=False``, ``eq=False``
    dataclasses finished by :func:`interned`; their ``__new__`` looks the
    value key up in ``cls._instances.data`` and falls back to
    :func:`intern_instance`.  Without a dataclass ``__eq__``/``__hash__``
    they inherit ``object``'s identity comparison and hash.  The base
    supplies the weakref slot the tables need (a base-class slot works on
    Python 3.10, where dataclasses lack ``weakref_slot``), and routes
    ``pickle``, ``copy`` and ``deepcopy`` back through the constructor.
    """

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return (type(self), tuple(getattr(self, name) for name in self._init_fields))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def interned(cls: type) -> type:
    """Class decorator: give an :class:`Interned` dataclass its instance
    table and record which of its fields the constructor sets and which
    are cache slots."""
    cls._instances = weakref.WeakValueDictionary()
    cls._init_fields = tuple(f.name for f in fields(cls) if f.init)
    cls._cache_defaults = tuple((f.name, f.default) for f in fields(cls) if not f.init)
    return cls


def intern_instance(cls: type, key, values: tuple):
    """The miss path of an interning ``__new__``: build the instance for
    *key* from the init-field *values* and publish it, unless another
    thread published one first.  Never re-initializes a published
    instance, so its cache slots survive re-construction."""
    table = cls._instances
    with _INTERN_LOCK:
        instance = table.get(key)
        if instance is None:
            instance = object.__new__(cls)
            for name, value in zip(cls._init_fields, values):
                object.__setattr__(instance, name, value)
            for name, value in cls._cache_defaults:
                object.__setattr__(instance, name, value)
            table[key] = instance
    return instance


XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_STRING = XSD + "string"

_NUMERIC_DATATYPES = frozenset(
    {
        XSD_INTEGER,
        XSD_DECIMAL,
        XSD_DOUBLE,
        XSD + "float",
        XSD + "long",
        XSD + "int",
        XSD + "short",
        XSD + "byte",
        XSD + "nonNegativeInteger",
        XSD + "positiveInteger",
    }
)


@interned
@dataclass(frozen=True, slots=True, init=False, eq=False)
class IRI(Interned):
    """An IRI reference, e.g. ``IRI("http://example.org/p1")``."""

    value: str
    _size: int | None = _cache_slot()
    _skey: tuple | None = _cache_slot()

    def __new__(cls, value: str) -> "IRI":
        ref = _IRI_REFS.get(value)
        if ref is not None:
            term = ref()
            if term is not None:
                return term
        if not value:
            raise RDFError("IRI value must be a non-empty string")
        return intern_instance(cls, value, (value,))

    def n3(self) -> str:
        """Render in N-Triples / SPARQL surface syntax."""
        return f"<{self.value}>"

    def local_name(self) -> str:
        """Heuristic local part: text after the last '#' or '/'."""
        for sep in ("#", "/"):
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value

    def __str__(self) -> str:
        return self.n3()


@interned
@dataclass(frozen=True, slots=True, init=False, eq=False)
class BNode(Interned):
    """A blank node with a local label, e.g. ``BNode("b0")``."""

    label: str
    _size: int | None = _cache_slot()
    _skey: tuple | None = _cache_slot()

    def __new__(cls, label: str) -> "BNode":
        ref = _BNODE_REFS.get(label)
        if ref is not None:
            term = ref()
            if term is not None:
                return term
        if not label:
            raise RDFError("BNode label must be a non-empty string")
        return intern_instance(cls, label, (label,))

    def n3(self) -> str:
        return f"_:{self.label}"

    def __str__(self) -> str:
        return self.n3()


@interned
@dataclass(frozen=True, slots=True, init=False, eq=False)
class Literal(Interned):
    """An RDF literal with optional datatype or language tag.

    Exactly one of ``datatype`` / ``language`` may be set.  Plain literals
    (neither set) behave as simple strings.
    """

    lexical: str
    datatype: str | None = None
    language: str | None = None
    _size: int | None = _cache_slot()
    _skey: tuple | None = _cache_slot()

    def __new__(
        cls, lexical: str, datatype: str | None = None, language: str | None = None
    ) -> "Literal":
        key = (lexical, datatype, language)
        ref = _LITERAL_REFS.get(key)
        if ref is not None:
            term = ref()
            if term is not None:
                return term
        if datatype is not None and language is not None:
            raise RDFError("a literal cannot have both a datatype and a language tag")
        return intern_instance(cls, key, key)

    @classmethod
    def from_python(cls, value: Union[int, float, bool, str]) -> "Literal":
        """Build a typed literal from a native Python value."""
        if isinstance(value, bool):
            return cls("true" if value else "false", datatype=XSD_BOOLEAN)
        if isinstance(value, int):
            return cls(str(value), datatype=XSD_INTEGER)
        if isinstance(value, float):
            return cls(repr(value), datatype=XSD_DOUBLE)
        if isinstance(value, str):
            return cls(value)
        raise RDFError(f"cannot convert {type(value).__name__} to an RDF literal")

    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES

    def python_value(self) -> Union[int, float, bool, str]:
        """Convert to the closest native Python value.

        Raises :class:`RDFError` when the lexical form does not parse
        under the declared datatype.
        """
        if self.datatype == XSD_BOOLEAN:
            if self.lexical in ("true", "1"):
                return True
            if self.lexical in ("false", "0"):
                return False
            raise RDFError(f"invalid xsd:boolean lexical form: {self.lexical!r}")
        if self.datatype == XSD_INTEGER or (
            self.datatype in _NUMERIC_DATATYPES and self.datatype not in (XSD_DOUBLE, XSD_DECIMAL)
        ):
            try:
                return int(self.lexical)
            except ValueError as exc:
                raise RDFError(f"invalid integer lexical form: {self.lexical!r}") from exc
        if self.datatype in (XSD_DOUBLE, XSD_DECIMAL, XSD + "float"):
            try:
                return float(self.lexical)
            except ValueError as exc:
                raise RDFError(f"invalid numeric lexical form: {self.lexical!r}") from exc
        return self.lexical

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.datatype is not None:
            return f'"{escaped}"^^<{self.datatype}>'
        if self.language is not None:
            return f'"{escaped}"@{self.language}'
        return f'"{escaped}"'

    def __str__(self) -> str:
        return self.n3()


@interned
@dataclass(frozen=True, slots=True, init=False, eq=False)
class Variable(Interned):
    """A SPARQL query variable, e.g. ``Variable("price")`` for ``?price``."""

    name: str
    _size: int | None = _cache_slot()
    _skey: tuple | None = _cache_slot()

    def __new__(cls, name: str) -> "Variable":
        ref = _VARIABLE_REFS.get(name)
        if ref is not None:
            term = ref()
            if term is not None:
                return term
        if not name:
            raise RDFError("variable name must be non-empty")
        if name.startswith("?") or name.startswith("$"):
            raise RDFError("variable name must not include the '?'/'$' sigil")
        return intern_instance(cls, name, (name,))

    def n3(self) -> str:
        return f"?{self.name}"

    def __str__(self) -> str:
        return self.n3()


# The interning constructors' lock-free fast path reads the tables'
# backing dicts directly.
_IRI_REFS = IRI._instances.data
_BNODE_REFS = BNode._instances.data
_LITERAL_REFS = Literal._instances.data
_VARIABLE_REFS = Variable._instances.data


# A concrete RDF term (something that can appear in data).
Term = Union[IRI, BNode, Literal]
# A term or variable (something that can appear in a triple pattern).
TermOrVar = Union[IRI, BNode, Literal, Variable]


def is_concrete(term: TermOrVar) -> bool:
    """True when *term* is a data term rather than a variable."""
    return not isinstance(term, Variable)


def term_sort_key(term: Term) -> tuple:
    """A deterministic ordering key across heterogeneous term types.

    Used for reproducible output ordering in reports and serializers;
    the order itself (IRIs, then bnodes, then literals) is arbitrary but
    stable.
    """
    if isinstance(term, IRI):
        return (0, term.value)
    if isinstance(term, BNode):
        return (1, term.label)
    if isinstance(term, Literal):
        return (2, term.lexical, term.datatype or "", term.language or "")
    raise RDFError(f"not a concrete RDF term: {term!r}")


def term_interned_sort_key(term: TermOrVar) -> tuple[str, str]:
    """A cached shuffle-ordering key: ``(type name, repr(term))``.

    This is exactly the key the runner historically rebuilt for every
    comparison pass; interning it on the immutable term means a term
    appearing in many sorts pays the (slow) dataclass ``repr`` once.
    Because the key *is* the historical key, reducer/combiner processing
    order — and with it every simulated counter and result row — is
    provably unchanged.  Component-tuple keys (as in
    :func:`term_sort_key`) would not be safe here: repr-string ordering
    differs from component ordering whenever a value contains characters
    below the quote delimiter (e.g. ``#`` in IRIs).
    """
    key = term._skey
    if key is None:
        key = (type(term).__name__, repr(term))
        object.__setattr__(term, "_skey", key)
    return key
