"""The stable wire format (v1): structures, formulas, answers, errors.

Every byte that crosses the service boundary — HTTP request and response
bodies, the serialized conformance corpus, answer pages — goes through
this module, so the encoding is defined exactly once.  The format grew
out of the conformance corpus serializer (PR 4) and is factored here so
the server (S18) and the corpus share one set of bytes: a corpus file is
a valid structure upload, and a fuzzer disagreement replays against a
live server without re-encoding.

Conventions
-----------
* **Formulas** travel as *concrete syntax* re-read by
  :func:`repro.logic.parser.parse` — human-diffable, curl-able, and the
  round trip doubles as a parser/printer conformance check.
* **Universe elements** may be ints, strings, or (nested) tuples — the
  latter appear in disjoint unions, whose elements are tagged ``(0, a)``
  / ``(1, b)``.  Tuples are encoded as ``{"t": [...]}`` objects so
  decoding is injective.
* **Answer sets** are lists of encoded tuples in a canonical sort order
  (`repr` of the decoded tuple, declared once as
  :func:`repro.structures.structure.canonical_order`), which is what
  makes server-side paging deterministic: the same page of the same
  answer set is always the same rows.  :func:`answers_to_wire` is the
  reference encoding.  A served page is rendered as text instead: one
  encoder, :class:`ElementTexts`, renders each row's JSON text from its
  elements' texts, the engine's answer record keeps those texts beside
  its page order, and a response is its envelope dumped with sorted
  keys with the page's row texts spliced in at ``rows``
  (:func:`splice`) — the bytes ``json.dumps(page, sort_keys=True)``
  makes, without encoding or dumping a row on a warm read.
* **Errors** are typed payloads — ``{"error": {"type", "message", ...}}``
  — so a refusal (429/503 on :class:`~repro.errors.BudgetExceededError`)
  is machine-distinguishable from a caller mistake (400/404) without
  string matching.
* **Trace ids** (telemetry v2) are an *additive* v1 field: any request
  body may carry ``"trace_id"`` (lowercase hex, ≤64 chars; also
  accepted as an ``X-Trace-Id`` header), and every response — success
  page or typed error payload — echoes the request's final trace id at
  the top level, so a client can join its call against the server's
  span trees, access log, and degradation events.  Old clients that
  send no id still get one minted and echoed.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from typing import Any

from repro.errors import (
    BudgetExceededError,
    FMTError,
    InjectedFaultError,
    ServerError,
    StructureError,
)
from repro.logic.parser import parse
from repro.logic.signature import Signature
from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
    Const,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Term,
    Top,
    Var,
)
from repro.structures.structure import (
    DIGEST_MEMO,
    ENCODING_MEMO,
    Element,
    Structure,
    canonical_order,
)

__all__ = [
    "WIRE_VERSION",
    "format_formula",
    "parse_formula",
    "encode_element",
    "decode_element",
    "ElementTexts",
    "element_texts",
    "encode_rows",
    "splice",
    "structure_to_dict",
    "structure_from_dict",
    "structure_digest",
    "updates_from_wire",
    "updates_to_wire",
    "answers_to_wire",
    "answers_from_wire",
    "error_to_wire",
    "status_for_error",
]

#: Version stamp carried by ``/healthz`` and ``/metrics``; bump on any
#: change that is not backward-compatible with serialized corpora.
WIRE_VERSION = 1


# -- formulas ----------------------------------------------------------------


def format_formula(formula: Formula) -> str:
    """Render a formula in the parser's concrete syntax.

    ``parse(format_formula(φ), constants=...)`` is logically equivalent
    to φ — identical up to the parser's flattening of nested ∧/∨ chains
    (one more round trip is a fixpoint; the serialization tests assert
    both).  Quantifiers always print with the scope-disambiguating dot,
    constants print as bare identifiers (re-read as constants when the
    signature is passed to :func:`parse`), and ``<``-atoms use the infix
    sugar.
    """
    if isinstance(formula, Atom):
        if formula.relation == "<" and len(formula.terms) == 2:
            return f"{_term(formula.terms[0])} < {_term(formula.terms[1])}"
        args = ", ".join(_term(term) for term in formula.terms)
        return f"{formula.relation}({args})"
    if isinstance(formula, Eq):
        return f"{_term(formula.left)} = {_term(formula.right)}"
    if isinstance(formula, Top):
        return "true"
    if isinstance(formula, Bottom):
        return "false"
    if isinstance(formula, Not):
        return f"~({format_formula(formula.body)})"
    if isinstance(formula, And):
        if not formula.children:
            return "true"
        return "(" + " & ".join(_operand(child) for child in formula.children) + ")"
    if isinstance(formula, Or):
        if not formula.children:
            return "false"
        return "(" + " | ".join(_operand(child) for child in formula.children) + ")"
    if isinstance(formula, Implies):
        return f"({_operand(formula.premise)} -> {_operand(formula.conclusion)})"
    if isinstance(formula, Iff):
        return f"({_operand(formula.left)} <-> {_operand(formula.right)})"
    if isinstance(formula, Exists):
        return f"exists {formula.var.name}. ({format_formula(formula.body)})"
    if isinstance(formula, Forall):
        return f"forall {formula.var.name}. ({format_formula(formula.body)})"
    raise StructureError(f"cannot serialize formula node {formula!r}")


def _operand(formula: Formula) -> str:
    # A quantifier's body extends as far right as possible, so a
    # quantified operand of an infix connective must close its scope
    # with explicit parentheses.
    text = format_formula(formula)
    if isinstance(formula, (Exists, Forall)):
        return f"({text})"
    return text


def _term(term: Term) -> str:
    if isinstance(term, (Var, Const)):
        return term.name
    raise StructureError(f"cannot serialize term {term!r}")


def parse_formula(text: str, constants: Signature | frozenset | None = None) -> Formula:
    """Decode a wire formula: :func:`repro.logic.parser.parse` with the
    signature (or constant set) deciding which identifiers are constants."""
    return parse(text, constants=constants)


# -- element encoding --------------------------------------------------------


def encode_element(element: Element) -> Any:
    """One universe element as a JSON value (injective; see module doc)."""
    if isinstance(element, bool) or element is None:
        raise StructureError(f"cannot serialize universe element {element!r}")
    if isinstance(element, (int, str)):
        return element
    if isinstance(element, tuple):
        return {"t": [encode_element(part) for part in element]}
    raise StructureError(f"cannot serialize universe element {element!r}")


class ElementTexts(dict):
    """Element → the JSON text of :func:`encode_element` of it, filled on
    first use: the one encoder of served answer rows.

    A row's text is its elements' texts joined (:meth:`render`).  Each
    text is what ``json.dumps`` makes of the element with its defaults
    (``ensure_ascii``, ``", "`` and ``": "`` separators), which are the
    response envelope's, so a row text spliced into an envelope
    (:func:`splice`) is the bytes ``json.dumps`` of the whole page
    makes."""

    def __missing__(self, element: Element) -> str:
        text = self[element] = json.dumps(encode_element(element))
        return text

    def render(self, rows: Iterable[tuple[Element, ...]]) -> list[str]:
        """Each row's JSON text (a JSON list of its elements)."""
        text = self.__getitem__
        return [f"[{', '.join(map(text, row))}]" for row in rows]


def element_texts(structure: Structure) -> ElementTexts:
    """The structure's :class:`ElementTexts` memo: each element is
    rendered once, not once per page row.  Kept across updates, which
    never change the universe, so it holds at most one entry per
    element."""
    texts = structure._cache.get(ENCODING_MEMO)
    if texts is None:
        # Made under the lock: an update copies the memo dict while it
        # holds it, and an insertion mid-copy would break the copy.
        with structure.lock:
            texts = structure.cached(ENCODING_MEMO, ElementTexts)
    return texts


def encode_rows(rows: Iterable[tuple[Element, ...]]) -> list[list[Any]]:
    """Answer rows as JSON lists, encoding every value: the reference
    encoder under :func:`answers_to_wire`."""
    return [[encode_element(value) for value in row] for row in rows]


def splice(envelope: dict[str, Any], key: str, text: str) -> str:
    """``json.dumps({**envelope, key: value}, sort_keys=True)``, for the
    value whose JSON text is ``text``, without parsing or dumping it.

    The keys that sort before ``key`` and those after it are dumped
    apart, and ``text`` goes between them by key position: nothing
    searches the dumped text, which may hold ``key`` inside a string (a
    query name, an ``explain`` payload).  ``text`` must be dumped with
    ``json.dumps``' defaults, as :meth:`ElementTexts.render` renders.
    """
    items = envelope.items()
    before = json.dumps({name: value for name, value in items if name < key}, sort_keys=True)
    after = json.dumps({name: value for name, value in items if name > key}, sort_keys=True)
    head = before[:-1] + ", " if len(before) > 2 else "{"
    tail = ", " + after[1:] if len(after) > 2 else "}"
    return f"{head}{json.dumps(key)}: {text}{tail}"


def decode_element(value: Any) -> Element:
    # JSON ``true``/``false`` decode to bool, an int subclass: ``True``
    # would pass a universe check as ``1`` and then fail to encode.
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return value
    if isinstance(value, dict) and set(value) == {"t"}:
        return tuple(decode_element(part) for part in value["t"])
    raise StructureError(f"cannot deserialize universe element {value!r}")


# -- structures --------------------------------------------------------------


def structure_to_dict(structure: Structure) -> dict:
    """A JSON-ready dict capturing the structure exactly."""
    data = _header_to_dict(structure)
    data["relations"] = {
        name: sorted(
            ([encode_element(value) for value in row] for row in tuples),
            key=repr,
        )
        for name, tuples in sorted(structure.relations.items())
    }
    return data


def _header_to_dict(structure: Structure) -> dict:
    """Everything but the relation rows: what updates never change."""
    return {
        "signature": {
            "relations": {
                name: structure.signature.arity(name)
                for name in structure.signature.relation_names()
            },
            "constants": sorted(structure.signature.constants),
        },
        "universe": [encode_element(element) for element in structure.universe],
        "constants": {
            name: encode_element(value)
            for name, value in sorted(structure.constants.items())
        },
    }


def structure_from_dict(data: dict) -> Structure:
    if not isinstance(data, dict) or "signature" not in data or "universe" not in data:
        raise StructureError(
            "wire structure must be an object with 'signature' and 'universe'"
        )
    signature = Signature(
        dict(data["signature"]["relations"]),
        frozenset(data["signature"].get("constants", ())),
    )
    universe = [decode_element(value) for value in data["universe"]]
    relations = {
        name: [tuple(decode_element(value) for value in row) for row in rows]
        for name, rows in data.get("relations", {}).items()
    }
    constants = {
        name: decode_element(value)
        for name, value in data.get("constants", {}).items()
    }
    return Structure(signature, universe, relations, constants)


#: Bytes of one AdHash row term; the row sum is taken mod 2^(8 * this).
_TERM_BYTES = 256
_SUM_MODULUS = 1 << (8 * _TERM_BYTES)


def structure_digest(structure: Structure) -> str:
    """A content-addressed structure id: ``s-`` + 16 hex digits.

    Identical structures (however uploaded, by whichever tenant) share an
    id, which is what lets the server store equal content once.  Updates
    (``POST /v1/structures/<id>/updates``) re-register the mutated
    structure under its *new* id and retire the old one.

    **Construction.**  The id is the first 64 bits of SHA-256(H ‖ S).
    H is the SHA-256 of the canonical JSON of the signature, universe
    and constants, which updates never change.  S is an AdHash
    (Bellare–Micciancio, EUROCRYPT 1997) of the rows: the sum, mod
    2^2048, of one SHAKE-256 term per (relation, row).  An insert adds
    its row's term and a delete subtracts it, so equal contents get
    equal sums whatever the update history.  The state (H, S) lives in
    the structure's memo with an epoch stamp; each call moves it forward
    over :meth:`~repro.structures.structure.Structure.deltas_since`, one
    term per delta, and sums every row from scratch only for a structure
    that has no state yet or whose delta log outran it.  The call holds
    the structure's lock, so no other thread's write lands mid-sum.

    **Threat model.**  An id is a 64-bit prefix, so finding *some* pair
    of colliding structures costs ~2^32 (birthday bound) and gains an
    attacker nothing.  The attack that matters is a *targeted* one: an
    upload whose id equals another tenant's live id, which
    ``QueryService.add_structure`` answers by handing over the victim's
    structure.  For a plain hash that is a second preimage on 64 bits,
    ~2^64 work.  An additive hash gives the attacker more room: rows
    whose terms sum to the target sum are a k-sum problem, which
    Wagner's k-tree algorithm (CRYPTO 2002) solves in about 2^(2√n) work
    for an n-bit modulus.  At n = 256 that is ~2^32, cheap enough to
    mount; at n ≥ 1024 it is ≥ 2^64, no cheaper than the second preimage
    on the id itself.  Hence the 2048-bit modulus.
    """
    with structure.lock:
        epoch = structure.epoch
        state = structure._cache.get(DIGEST_MEMO)
        deltas = None if state is None else structure.deltas_since(state[0])
        if deltas is None:
            header = hashlib.sha256(
                json.dumps(_header_to_dict(structure), sort_keys=True).encode()
            ).digest()
            total = _row_sum(structure)
        else:
            _, header, total = state
            for op, relation, row in deltas:
                term = _row_term(relation, row)
                total += term if op == "insert" else -term
        total %= _SUM_MODULUS
        # A write that landed mid-call may or may not be in the sum; only a
        # state computed at one epoch may be kept.
        if structure.epoch == epoch:
            structure._cache[DIGEST_MEMO] = (epoch, header, total)
    summed = header + total.to_bytes(_TERM_BYTES, "little")
    return "s-" + hashlib.sha256(summed).hexdigest()[:16]


def _row_sum(structure: Structure) -> int:
    """Every row's term, summed: one plainness check per relation."""
    total = 0
    for name, rows in structure.relations.items():
        if _all_plain([value for row in rows for value in row]):
            total += sum(_shake_term(repr((name, row))) for row in rows)
        else:
            total += sum(_row_term(name, row) for row in rows)
    return total


def _row_term(relation: str, row: tuple) -> int:
    """One row's AdHash term: SHAKE-256 of ``repr`` of the plain
    (relation, row) pair, which is injective over wire-legal elements."""
    if not _all_plain(row):
        row = _plain(row)
    return _shake_term(repr((relation, row)))


def _shake_term(text: str) -> int:
    return int.from_bytes(hashlib.shake_256(text.encode()).digest(_TERM_BYTES), "little")


_PLAIN_TYPES = frozenset({int, str, tuple})


def _all_plain(values) -> bool:
    """Whether every value is an exact int, str or tuple of such values
    (then ``repr`` is the row encoding as is), checked a level at a time."""
    while values:
        if not set(map(type, values)) <= _PLAIN_TYPES:
            return False
        values = [part for value in values if type(value) is tuple for part in value]
    return True


def _plain(element: Element) -> Element:
    """The plain int/str/tuple value ``element`` decodes to off the wire;
    raises :class:`StructureError` on what :func:`encode_element` refuses."""
    if type(element) is int or type(element) is str:
        return element
    if isinstance(element, tuple):
        return tuple(_plain(part) for part in element)
    return json.loads(json.dumps(encode_element(element)))


# -- structure updates (wire v1 additive) ------------------------------------


def updates_from_wire(data: Any) -> list[tuple[str, str, tuple]]:
    """Decode a batched-delta payload: ``[{"op", "relation", "row"}, ...]``.

    Shape validation only — ``op`` must be ``insert`` or ``delete``,
    ``relation`` a string, ``row`` a list of wire elements.  Whether the
    relation exists, the arity matches, and the row's elements lie in
    the universe is checked by the service against the target structure
    (those are *that structure's* errors, not the encoding's).
    """
    if not isinstance(data, list) or not data:
        raise StructureError("'updates' must be a non-empty list of delta objects")
    deltas: list[tuple[str, str, tuple]] = []
    for entry in data:
        if not isinstance(entry, dict):
            raise StructureError(f"delta must be an object, got {entry!r}")
        op = entry.get("op")
        if op not in ("insert", "delete"):
            raise StructureError(
                f"delta op must be 'insert' or 'delete', got {op!r}"
            )
        relation = entry.get("relation")
        if not isinstance(relation, str):
            raise StructureError(f"delta relation must be a string, got {relation!r}")
        row = entry.get("row")
        if not isinstance(row, list):
            raise StructureError(f"delta row must be a list, got {row!r}")
        deltas.append((op, relation, tuple(decode_element(value) for value in row)))
    return deltas


def updates_to_wire(deltas: list[tuple[str, str, tuple]]) -> list[dict]:
    """Encode deltas in the request format (used by clients and tests)."""
    return [
        {
            "op": op,
            "relation": relation,
            "row": [encode_element(value) for value in row],
        }
        for op, relation, row in deltas
    ]


# -- answer sets -------------------------------------------------------------


def answers_to_wire(rows: frozenset[tuple[Element, ...]]) -> list[list[Any]]:
    """An answer set as a canonically ordered list of encoded tuples.

    The order is :func:`~repro.structures.structure.canonical_order`,
    ``repr`` of the decoded tuple — total over the mixed int/str/tuple
    element universe — so paging a large answer set is deterministic
    across requests and across server restarts.  This is the reference
    encoding: it sorts ``rows`` and encodes every value.  A served answer
    page has the same order and, dumped, the same bytes, without either
    cost on a warm read: the engine's answer record keeps the order and
    each row's JSON text beside it
    (:meth:`repro.engine.engine.Engine.page_order`), and the page's
    response splices the row texts into its envelope (:func:`splice`).
    """
    return encode_rows(canonical_order(rows))


def answers_from_wire(rows: list[list[Any]]) -> frozenset[tuple[Element, ...]]:
    return frozenset(
        tuple(decode_element(value) for value in row) for row in rows
    )


# -- typed errors ------------------------------------------------------------


def status_for_error(error: BaseException) -> int:
    """The HTTP status an error maps to.

    * :class:`~repro.errors.InjectedFaultError` → 503 — a server-side
      (injected) fault; the client may retry.
    * any other :class:`~repro.errors.BudgetExceededError` → 429 — the
      request exceeded its admission budget; a typed refusal.
    * :class:`~repro.errors.ServerError` → its own ``status`` (404 for
      unknown structures/queries, 409 for prepare conflicts).
    * any other :class:`~repro.errors.FMTError` → 400 — the request was
      understood but invalid (parse errors, bad structures, ...).
    """
    if isinstance(error, InjectedFaultError):
        return 503
    if isinstance(error, BudgetExceededError):
        return 429
    if isinstance(error, ServerError):
        return error.status
    if isinstance(error, FMTError):
        return 400
    return 500


def error_to_wire(
    error: BaseException, status: int | None = None, trace_id: str | None = None
) -> dict:
    """The typed error payload for one failed request.

    Budget refusals additionally carry ``refusal: true`` plus the
    ``spent``/``budget`` accounting from
    :class:`~repro.errors.BudgetExceededError`, so admission-control
    outcomes are machine-countable (the conformance remote backend and
    the CI smoke assert on these fields, not on message text).
    ``trace_id`` (when the failing request ran under a trace context) is
    echoed at the top level of the error body, same as on success.
    """
    status = status_for_error(error) if status is None else status
    payload: dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, BudgetExceededError):
        payload["refusal"] = True
        payload["spent"] = error.spent
        payload["budget"] = error.budget
    wire: dict[str, Any] = {"error": payload, "status": status}
    if trace_id is not None:
        wire["trace_id"] = trace_id
    return wire
