"""Vectorized kernels over integer-coded relations, generated per shape.

Every kernel here is *specialized source code*: instead of interpreting
"join on the shared attributes" per row (index lists, ``itemgetter``,
generic ``all(...)`` filters), each builder renders a small Python
function with the strides, pinned ids and column positions **inlined as
constants**, compiles it once, and returns the closure — the technique
pracmln's ``fastconj`` grounding uses for conjunction specialization.
Generated sources are memoized in one process-wide LRU of
:data:`CODE_CACHE_LIMIT` code objects, so two plans with the same shape
over the same domain size share one code object, and a long-lived
process that sees many domain sizes or constants keeps a bounded set.

Two row encodings (see :mod:`repro.engine.columnar.codec`):

* packed mode — a row is one int in mixed radix base ``n``; extracting
  attribute ``p`` of an arity-``k`` key compiles to
  ``(key // n**(k-1-p)) % n`` (with the boundary cases simplified), and
  composite join keys compile to closed-form arithmetic;
* tuple mode — a row is a tuple of ints; extraction compiles to plain
  subscripts.

All kernels consume and produce ``set``\\ s (never mutating inputs), so
hash joins, semijoins, antijoins, project-dedup, unions and domain
complements all run as C-level set/dict operations with one generated
expression per row.

A step whose output is a subset of one input builds no join match:

* a half-join whose other side has only shared attributes probes that
  set in place, one C-level ``L & R`` / ``L - R`` when the key orders
  agree (:func:`build_half_join`, :func:`build_semijoin`);
* ``A ⋉ π_S(B ⋈ C)`` and its ▷ form index B and C by the attributes S
  keeps and test each row of A with one ``isdisjoint`` of two indexed
  sets, so B ⋈ C is never built (:func:`build_meet`).
"""

from __future__ import annotations

from itertools import product
from typing import Callable

from repro.engine.cache import LRUCache

__all__ = [
    "build_scan",
    "build_join",
    "build_half_join",
    "build_semijoin",
    "build_meet",
    "build_project",
    "build_extend",
    "build_extend_insert",
    "build_complement",
    "build_union",
    "build_division",
    "compile_source",
]

#: Compiled kernel sources kept. A source inlines the domain size and
#: constant ids, so unbounded, every new size or constant grew the memo
#: for good. One run of the layer ledger's four workloads compiles 42
#: distinct sources, at most 18 in one process; the bound matches the
#: plan cache and the per-structure pipeline memo.
CODE_CACHE_LIMIT = 256

#: source string -> compiled code object (same-shape plans share kernels).
_CODE_CACHE = LRUCache(CODE_CACHE_LIMIT)

_EXEC_GLOBALS = {"product": product, "range": range, "set": set, "zip": zip, "len": len}


def compile_source(source: str, name: str) -> Callable:
    """Compile (memoized) generated kernel source and return the function."""
    code = _CODE_CACHE.get_or_compute(
        source, lambda: compile(source, f"<columnar:{name}>", "exec")
    )
    namespace: dict = dict(_EXEC_GLOBALS)
    exec(code, namespace)
    return namespace[name]


# -- expression rendering ----------------------------------------------------


def _elem(var: str, position: int, arity: int, base: int, packed: bool) -> str:
    """Expression for attribute ``position`` of key ``var``."""
    if not packed:
        return f"{var}[{position}]"
    if arity == 1:
        return var
    if position == arity - 1:
        return f"({var} % {base})"
    if position == 0:
        return f"({var} // {base ** (arity - 1)})"
    return f"(({var} // {base ** (arity - 1 - position)}) % {base})"


def _subkey(
    var: str, positions: tuple[int, ...], arity: int, base: int, packed: bool
) -> str:
    """Expression packing the given positions of ``var`` into a new key."""
    if positions == tuple(range(arity)):
        return var
    if packed:
        if not positions:
            return "0"
        width = len(positions)
        terms = []
        for rank, position in enumerate(positions):
            element = _elem(var, position, arity, base, packed)
            weight = base ** (width - 1 - rank)
            terms.append(element if weight == 1 else f"{element} * {weight}")
        return " + ".join(terms)
    if not positions:
        return "()"
    elements = ", ".join(_elem(var, p, arity, base, packed) for p in positions)
    return f"({elements},)"


def _pair_emit(
    sources: tuple[tuple[str, int, int], ...], base: int, packed: bool
) -> str:
    """Emit expression combining attributes drawn from two keys.

    ``sources`` lists ``(var, position, arity)`` per output attribute in
    output order — the fused join ⨝ π kernel: the projected key is
    computed straight from the probe pair, no intermediate row exists.
    """
    if packed:
        if not sources:
            return "0"
        width = len(sources)
        terms = []
        for rank, (var, position, arity) in enumerate(sources):
            element = _elem(var, position, arity, base, packed)
            weight = base ** (width - 1 - rank)
            terms.append(element if weight == 1 else f"{element} * {weight}")
        return " + ".join(terms)
    if not sources:
        return "()"
    elements = ", ".join(
        _elem(var, position, arity, base, packed) for var, position, arity in sources
    )
    return f"({elements},)"


def _filter(
    rows: str,
    var: str,
    other: str,
    arity: int,
    key: tuple[int, ...],
    emit: tuple[int, ...],
    base: int,
    packed: bool,
    keep_matching: bool,
) -> str:
    """Expression for the ``emit`` keys of the rows of ``rows`` whose
    ``key`` is (``keep_matching``) or is not in the set ``other``.

    A key that is the whole row in order makes the test one C-level
    ``&`` (``-``); an ``emit`` that is the whole row leaves it at that.
    """
    if key == tuple(range(arity)):
        rows = f"({rows} {'&' if keep_matching else '-'} {other})"
        if emit == key:
            return rows
        guard = ""
    else:
        test = "in" if keep_matching else "not in"
        guard = f" if {_subkey(var, key, arity, base, packed)} {test} {other}"
    return f"{{{_subkey(var, emit, arity, base, packed)} for {var} in {rows}{guard}}}"


# -- kernel builders ---------------------------------------------------------


def build_scan(
    raw_arity: int,
    pins: tuple[tuple[int, int], ...],
    equalities: tuple[tuple[int, int], ...],
    projection: tuple[int, ...],
    base: int,
    packed: bool,
) -> Callable:
    """σπ-fused scan kernel: ``fn(columns) -> set`` of projected keys.

    ``pins`` are (position, id) constant selections, ``equalities`` are
    (position, position) repeated-variable selections, ``projection``
    lists the surviving raw positions in output order — all inlined.
    """
    names = [f"r{i}" for i in range(raw_arity)]
    if raw_arity == 1:
        head = f"for r0 in cols[0]"
    else:
        unpack = ", ".join(names)
        zipped = ", ".join(f"cols[{i}]" for i in range(raw_arity))
        head = f"for {unpack} in zip({zipped})"
    conditions = [f"r{position} == {ident}" for position, ident in pins]
    conditions += [f"r{i} == r{j}" for i, j in equalities]
    guard = f" if {' and '.join(conditions)}" if conditions else ""
    if packed:
        if not projection:
            emit = "0"
        else:
            width = len(projection)
            terms = []
            for rank, position in enumerate(projection):
                weight = base ** (width - 1 - rank)
                terms.append(
                    f"r{position}" if weight == 1 else f"r{position} * {weight}"
                )
            emit = " + ".join(terms)
    else:
        emit = "(" + "".join(f"r{p}, " for p in projection) + ")"
    source = f"def kernel(cols):\n    return {{{emit} {head}{guard}}}\n"
    return compile_source(source, "kernel")


def build_join(
    left_arity: int,
    right_arity: int,
    left_shared: tuple[int, ...],
    right_shared: tuple[int, ...],
    right_extras: tuple[int, ...],
    base: int,
    packed: bool,
    projection: tuple[tuple[str, int], ...] | None = None,
) -> Callable:
    """Hash-join kernel ``fn(L, R) -> set``, build side chosen by size.

    Output attributes are ``left + right extras`` (the planner's
    ``join_attributes`` order). ``projection`` optionally fuses a parent
    π into the probe loop: each entry is ``('l'|'r', position)`` naming
    the side and position of one projected output attribute.
    """
    if projection is None:
        emitted = [("l", position) for position in range(left_arity)]
        emitted += [("r", position) for position in right_extras]
    else:
        emitted = list(projection)
    sources = tuple(
        ("lk", position, left_arity) if side == "l" else ("rk", position, right_arity)
        for side, position in emitted
    )
    emit = _pair_emit(sources, base, packed)
    if not left_shared:
        source = (
            "def kernel(L, R):\n"
            "    out = set()\n"
            "    add = out.add\n"
            "    for lk in L:\n"
            "        for rk in R:\n"
            f"            add({emit})\n"
            "    return out\n"
        )
        return compile_source(source, "kernel")
    lsub = _subkey("lk", left_shared, left_arity, base, packed)
    rsub = _subkey("rk", right_shared, right_arity, base, packed)
    source = (
        "def kernel(L, R):\n"
        "    out = set()\n"
        "    add = out.add\n"
        "    tbl = {}\n"
        "    if len(L) <= len(R):\n"
        "        for lk in L:\n"
        f"            k = {lsub}\n"
        "            b = tbl.get(k)\n"
        "            if b is None:\n"
        "                tbl[k] = [lk]\n"
        "            else:\n"
        "                b.append(lk)\n"
        "        for rk in R:\n"
        f"            b = tbl.get({rsub})\n"
        "            if b is not None:\n"
        "                for lk in b:\n"
        f"                    add({emit})\n"
        "    else:\n"
        "        for rk in R:\n"
        f"            k = {rsub}\n"
        "            b = tbl.get(k)\n"
        "            if b is None:\n"
        "                tbl[k] = [rk]\n"
        "            else:\n"
        "                b.append(rk)\n"
        "        for lk in L:\n"
        f"            b = tbl.get({lsub})\n"
        "            if b is not None:\n"
        "                for rk in b:\n"
        f"                    add({emit})\n"
        "    return out\n"
    )
    return compile_source(source, "kernel")


def build_half_join(
    left_arity: int,
    right_arity: int,
    left_shared: tuple[int, ...],
    right_shared: tuple[int, ...],
    base: int,
    packed: bool,
    keep_matching: bool,
) -> Callable:
    """Semijoin (⋉, ``keep_matching``) / antijoin (▷) kernel ``fn(L, R)``.

    When every attribute of R is shared, R is already the key set: each
    left row's key is built in R's attribute order and probed in R
    itself, and when that key is the left row, the kernel is one C-level
    ``L & R`` / ``L - R``. Otherwise one generated key-set over the
    right side, one membership test per left row — the hash-based
    realization of safe negation.
    """
    if sorted(right_shared) == list(range(right_arity)):
        key = [0] * right_arity
        for left_position, right_position in zip(left_shared, right_shared):
            key[right_position] = left_position
        found = _filter(
            "L", "lk", "R", left_arity, tuple(key), tuple(range(left_arity)),
            base, packed, keep_matching,
        )
        return compile_source(f"def kernel(L, R):\n    return {found}\n", "kernel")
    lsub = _subkey("lk", left_shared, left_arity, base, packed)
    rsub = _subkey("rk", right_shared, right_arity, base, packed)
    test = "in" if keep_matching else "not in"
    source = (
        "def kernel(L, R):\n"
        f"    keys = {{{rsub} for rk in R}}\n"
        f"    return {{lk for lk in L if {lsub} {test} keys}}\n"
    )
    return compile_source(source, "kernel")


def build_semijoin(
    arity: int, key: tuple[int, ...], emit: tuple[int, ...], base: int, packed: bool
) -> Callable:
    """Kernel ``fn(A, R)`` for a join that is a semijoin.

    Every attribute of R is one of A's, so the output reads only A: the
    ``emit`` keys of the rows of A whose ``key`` (A's positions of R's
    attributes, in R's order) is in R. No match is ever built.
    """
    found = _filter("A", "ak", "R", arity, key, emit, base, packed, True)
    return compile_source(f"def kernel(A, R):\n    return {found}\n", "kernel")


def build_meet(
    arity: int,
    emit: tuple[int, ...],
    sides: tuple[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...],
    base: int,
    packed: bool,
    keep_matching: bool,
) -> Callable:
    """Kernel ``fn(A, B, C)`` for ``A ⋉ π_S(B ⋈ C)`` (▷ unless ``keep_matching``).

    S keeps every attribute of B and C except some they share, D, and
    every attribute of S is one of A's, so a row of A has a match iff
    the D values of B's rows that agree with it on S meet those of C's.
    ``sides`` holds ``(arity, kept, dropped, probe)`` for B, then C: its
    positions of the attributes S keeps, its positions of D (in one
    order for both), and A's positions of those kept attributes. The
    kernel indexes B and C by their kept attributes, each to a set of D
    keys, and tests each row of A with one C-level ``isdisjoint`` — the
    join B ⋈ C is never built: O(|A| + |B| + |C|) Python steps.
    """
    lines = ["def kernel(A, B, C):", "    none = set()"]
    probes = []
    for rows, (side_arity, kept, dropped, probe) in zip("BC", sides):
        index, var = f"index{rows}", f"{rows.lower()}k"
        value = _subkey(var, dropped, side_arity, base, packed)
        lines += [
            f"    {index} = {{}}",
            f"    for {var} in {rows}:",
            f"        k = {_subkey(var, kept, side_arity, base, packed)}",
            f"        s = {index}.get(k)",
            "        if s is None:",
            f"            {index}[k] = {{{value}}}",
            "        else:",
            f"            s.add({value})",
        ]
        probes.append(f"{index}.get({_subkey('ak', probe, arity, base, packed)}, none)")
    meet = f"{probes[0]}.isdisjoint({probes[1]})"
    guard = f"not {meet}" if keep_matching else meet
    lines.append(
        f"    return {{{_subkey('ak', emit, arity, base, packed)} for ak in A if {guard}}}"
    )
    return compile_source("\n".join(lines) + "\n", "kernel")


def build_project(
    positions: tuple[int, ...], arity: int, base: int, packed: bool
) -> Callable:
    """Project-dedup kernel ``fn(rows) -> set`` (dedup is the set itself)."""
    sub = _subkey("k", positions, arity, base, packed)
    source = f"def kernel(rows):\n    return {{{sub} for k in rows}}\n"
    return compile_source(source, "kernel")


def build_extend(
    arity: int, new_count: int, base: int, packed: bool
) -> Callable:
    """Pad kernel: append ``new_count`` domain-ranging columns (a product).

    In packed mode the appended digits are the *low* digits, so each
    input key expands to one contiguous run of output keys — emitted as
    a single C-level ``set.update(range(...))`` per input row instead of
    a per-output-key comprehension.
    """
    if packed:
        block = base**new_count
        source = (
            "def kernel(rows):\n"
            "    out = set()\n"
            "    update = out.update\n"
            "    for k in rows:\n"
            f"        b = k * {block}\n"
            f"        update(range(b, b + {block}))\n"
            "    return out\n"
        )
        return compile_source(source, "kernel")
    source = (
        "def kernel(rows):\n"
        f"    extras = list(product(range({base}), repeat={new_count}))\n"
        "    return {k + e for k in rows for e in extras}\n"
    )
    return compile_source(source, "kernel")


def build_extend_insert(
    child_arity: int, new_count: int, insert_at: int, base: int
) -> Callable:
    """Fused π ∘ Extend kernel (packed mode): insert the new digits mid-key.

    Realizes ``Project(Extend(child))`` when the projection keeps the
    child attributes in order and splices the new attributes in as one
    contiguous block at position ``insert_at``. Each child key ``c``
    splits at the insertion point into high digits ``c // split`` and
    low digits ``c % split`` (``split = base**(child_arity - insert_at)``),
    and the output keys form one arithmetic progression with stride
    ``split`` — again a single ``set.update(range(...))`` per input row,
    never a materialized intermediate of the unprojected extend.
    """
    split = base ** (child_arity - insert_at)
    count = base**new_count
    hi_mult = split * count
    span = count * split
    if insert_at == child_arity:  # appended at the end: contiguous run
        body = f"        b = k * {hi_mult}\n        update(range(b, b + {span}))\n"
    elif insert_at == 0:  # prepended: the child key is the low digits
        body = f"        update(range(k, k + {span}, {split}))\n"
    else:
        body = (
            f"        b = (k // {split}) * {hi_mult} + (k % {split})\n"
            f"        update(range(b, b + {span}, {split}))\n"
        )
    source = (
        "def kernel(rows):\n"
        "    out = set()\n"
        "    update = out.update\n"
        "    for k in rows:\n"
        f"{body}"
        "    return out\n"
    )
    return compile_source(source, "kernel")


def build_complement(arity: int, base: int, packed: bool, universe_cache: dict) -> Callable:
    """Complement kernel: ``domain^arity`` minus the rows.

    The full key universe for (base, arity) is built once and kept in
    ``universe_cache`` (the codec's, keyed by ``(arity, packed)``: packed
    and tuple-of-int plans over one structure need different key sets),
    so repeated complements — the ∀-as-¬∃¬ pattern produces two per
    quantifier — pay one C-level ``difference`` each.
    """
    key = (arity, packed)
    if packed:
        size = base**arity

        def kernel(rows: set) -> set:
            full = universe_cache.get(key)
            if full is None:
                full = frozenset(range(size))
                universe_cache[key] = full
            return full.difference(rows)

        return kernel

    def kernel(rows: set) -> set:
        full = universe_cache.get(key)
        if full is None:
            full = frozenset(product(range(base), repeat=arity))
            universe_cache[key] = full
        return full.difference(rows)

    return kernel


def build_union() -> Callable:
    """n-ary ∪ kernel: one set constructed from all parts at once."""

    def kernel(*parts: set) -> set:
        return set().union(*parts)

    return kernel


def build_division(
    guard_arity: int,
    guard_keys: tuple[int, ...],
    guard_var: int,
    body_arity: int,
    body_var: int,
    body_rest: tuple[int, ...],
    shared: tuple[tuple[int, int], ...],
    base: int,
    packed: bool,
) -> Callable:
    """Set-containment kernel ``fn(G, P)`` for ∀z(¬A(x̄, z) ∨ ψ(w̄, z)).

    ``G`` holds the guard's keys: x̄ at ``guard_keys``, z at
    ``guard_var``. ``P`` holds ψ's keys: z at ``body_var``, the
    variables w̄ ∖ x̄ at ``body_rest``, and the shared variables
    x̄ ∩ w̄ as ``shared`` pairs (position in x̄, position in ψ). The
    output keys are x̄ followed by w̄ ∖ x̄. Four steps:

    1. group the guard's z values by x̄;
    2. index ψ's w̄ ∖ x̄ keys by (x̄ ∩ w̄, z);
    3. per x̄, intersect the indexed sets along its z values, stopping
       at the first empty one;
    4. emit every x̄ with an empty guard crossed with domain^|w̄∖x̄| —
       one strided ``range`` per x̄ in packed mode, a product otherwise.
    """
    width = len(body_rest)
    span = base**width
    xsub = _subkey("gk", guard_keys, guard_arity, base, packed)
    zval = _elem("gk", guard_var, guard_arity, base, packed)
    rsub = _subkey("pk", body_rest, body_arity, base, packed)
    # ψ's index key: (x̄ ∩ w̄, z) packed or as a tuple — just z if nothing
    # is shared — and the matching probe from a guard's x̄ key.
    setup, probe = "", "z"
    if not shared:
        isub = _elem("pk", body_var, body_arity, base, packed)
    else:
        positions = tuple(b for _, b in shared) + (body_var,)
        isub = _subkey("pk", positions, body_arity, base, packed)
        if packed:
            sub = _subkey("xk", tuple(x for x, _ in shared), len(guard_keys), base, packed)
            setup, probe = f"        s = ({sub}) * {base}\n", "s + z"
        else:
            probe = "(" + "".join(f"xk[{x}], " for x, _ in shared) + "z)"
    if packed:
        emit = f"            b = xk * {span}\n            update([b + r for r in acc])\n"
        empty = (
            f"    for xk in range({base ** len(guard_keys)}):\n"
            "        if xk not in groups:\n"
            f"            b = xk * {span}\n"
            f"            update(range(b, b + {span}))\n"
        )
    else:
        emit = "            update([xk + r for r in acc])\n"
        empty = (
            f"    fill = list(product(range({base}), repeat={width}))\n"
            f"    for xk in product(range({base}), repeat={len(guard_keys)}):\n"
            "        if xk not in groups:\n"
            "            update([xk + r for r in fill])\n"
        )
    source = (
        "def kernel(G, P):\n"
        "    groups = {}\n"
        "    for gk in G:\n"
        f"        xk = {xsub}\n"
        "        zs = groups.get(xk)\n"
        "        if zs is None:\n"
        f"            groups[xk] = [{zval}]\n"
        "        else:\n"
        f"            zs.append({zval})\n"
        "    index = {}\n"
        "    for pk in P:\n"
        f"        k = {isub}\n"
        "        rs = index.get(k)\n"
        "        if rs is None:\n"
        f"            index[k] = {{{rsub}}}\n"
        "        else:\n"
        f"            rs.add({rsub})\n"
        "    get = index.get\n"
        "    out = set()\n"
        "    update = out.update\n"
        "    for xk, zs in groups.items():\n"
        f"{setup}"
        "        acc = None\n"
        "        for z in zs:\n"
        f"            rs = get({probe})\n"
        "            if rs is None:\n"
        "                break\n"
        "            acc = rs if acc is None else acc & rs\n"
        "            if not acc:\n"
        "                break\n"
        "        else:\n"
        f"{emit}"
        f"{empty}"
        "    return out\n"
    )
    return compile_source(source, "kernel")
