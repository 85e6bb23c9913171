"""Prometheus text exposition (format 0.0.4) for the metrics registry.

The registry already keys labeled series the way Prometheus does
(``name{k="v",...}``), so exposition is a rendering pass, not a data
model translation: counters become ``<name>_total`` counter families,
gauges stay gauges, histograms are exported as **summaries** (quantile
series from the reservoir percentiles plus exact ``_sum``/``_count``)
because the registry keeps a sample, not fixed buckets.

Metric and label names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``); label values are escaped per the spec
(backslash, double-quote, newline).

:func:`parse_exposition` is the strict inverse used by the test suite
and the CI observability job: it validates every line against the
format grammar and raises ``ValueError`` on anything malformed, so a
formatting regression fails loudly instead of being silently dropped by
a lenient scraper.
"""

from __future__ import annotations

import math
import re

from repro.telemetry.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "CONTENT_TYPE",
    "parse_exposition",
    "render_exposition",
    "sanitize_name",
]

#: The Content-Type a compliant scraper expects for text format 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_SUMMARY_QUANTILES = ((0.5, 50.0), (0.95, 95.0), (0.99, 99.0))


def sanitize_name(name: str) -> str:
    """Map an internal metric name onto the Prometheus grammar.

    Dots (the registry's namespace separator) and any other illegal
    character become underscores; a leading digit gets a ``_`` prefix.
    """
    fixed = _NAME_FIX.sub("_", name)
    if not fixed or not _NAME_OK.match(fixed):
        fixed = "_" + fixed
    return fixed


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{sanitize_name(key)}="{_escape_label_value(str(merged[key]))}"'
        for key in sorted(merged)
    )
    return "{" + inner + "}"


def _render_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_exposition(registry: MetricsRegistry | None = None, extra: tuple = ()) -> str:
    """The whole registry as Prometheus text format 0.0.4, with the
    ``extra`` series held outside it (a service's per-tenant series).

    Families are grouped (one ``# TYPE`` line per base name, series
    sorted), counters get the conventional ``_total`` suffix, histograms
    export as summaries. Always ends with a newline, as the format
    requires.
    """
    registry = registry if registry is not None else REGISTRY
    families: dict[str, tuple[str, list[str]]] = {}

    for metric in sorted((*registry.metrics(), *extra), key=lambda m: m.name):
        base = sanitize_name(metric.base_name)
        if isinstance(metric, Counter):
            family = base + "_total"
            kind = "counter"
            lines = [f"{family}{_render_labels(metric.labels)} "
                     f"{_render_value(metric.value)}"]
        elif isinstance(metric, Gauge):
            family = base
            kind = "gauge"
            lines = [f"{family}{_render_labels(metric.labels)} "
                     f"{_render_value(metric.value)}"]
        elif isinstance(metric, Histogram):
            family = base
            kind = "summary"
            lines = []
            for quantile, pct in _SUMMARY_QUANTILES:
                value = metric.percentile(pct) if metric.count else 0.0
                labels = _render_labels(metric.labels, {"quantile": str(quantile)})
                lines.append(f"{family}{labels} {_render_value(value)}")
            lines.append(f"{family}_sum{_render_labels(metric.labels)} "
                         f"{_render_value(metric.total)}")
            lines.append(f"{family}_count{_render_labels(metric.labels)} "
                         f"{_render_value(metric.count)}")
        else:  # pragma: no cover - registry only holds the three kinds
            continue
        slot = families.setdefault(family, (kind, []))
        slot[1].extend(lines)

    out: list[str] = []
    for family in sorted(families):
        kind, lines = families[family]
        out.append(f"# TYPE {family} {kind}")
        out.extend(lines)
    return "\n".join(out) + "\n" if out else "\n"


# -- strict parsing ------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\["\\n])*)"$'
)
_TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r" (?P<kind>counter|gauge|histogram|summary|untyped)$"
)
_HELP_RE = re.compile(r"^# HELP (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) (?P<doc>.*)$")


def _parse_value(raw: str) -> float:
    if raw == "NaN":
        return math.nan
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"invalid sample value: {raw!r}") from None


def _split_label_body(body: str) -> list[str]:
    """Split ``k="v",k2="v2"`` on commas outside quoted values."""
    pairs: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for ch in body:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current or not pairs:
        pairs.append("".join(current))
    if in_quotes:
        raise ValueError(f"unterminated label value in: {{{body}}}")
    return pairs


def _unescape_label_value(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_exposition(text: str) -> dict[str, dict]:
    """Strictly parse Prometheus text format into
    ``{family: {"type": kind|None, "samples": {series: value}}}``.

    Samples are attributed to the family named by the most specific
    ``# TYPE`` prefix match (so ``latency_sum`` joins the ``latency``
    summary); unknown comment lines other than HELP/TYPE, malformed
    samples, duplicate series, and label-grammar violations all raise
    ``ValueError`` — this parser is the CI gate, not a forgiving scraper.
    """
    families: dict[str, dict] = {}
    type_names: list[str] = []

    def family_for(sample_name: str) -> str:
        best = ""
        for declared in type_names:
            if sample_name == declared or (
                sample_name.startswith(declared + "_")
                and sample_name[len(declared):] in ("_sum", "_count", "_bucket")
            ):
                if len(declared) > len(best):
                    best = declared
        return best or sample_name

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if line.startswith("#"):
            type_match = _TYPE_RE.match(line)
            if type_match:
                name = type_match.group("name")
                entry = families.setdefault(name, {"type": None, "samples": {}})
                if entry["type"] is not None:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
                entry["type"] = type_match.group("kind")
                type_names.append(name)
                continue
            if _HELP_RE.match(line):
                continue
            raise ValueError(f"line {lineno}: malformed comment: {line!r}")
        sample = _SAMPLE_RE.match(line)
        if not sample:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels: dict[str, str] = {}
        body = sample.group("labels")
        if body is not None:
            if not body:
                raise ValueError(f"line {lineno}: empty label braces: {line!r}")
            for pair in _split_label_body(body):
                pair_match = _LABEL_PAIR_RE.match(pair)
                if not pair_match:
                    raise ValueError(f"line {lineno}: malformed label pair {pair!r}")
                label_name = pair_match.group("name")
                if not _LABEL_NAME_OK.match(label_name):
                    raise ValueError(f"line {lineno}: bad label name {label_name!r}")
                if label_name in labels:
                    raise ValueError(f"line {lineno}: duplicate label {label_name!r}")
                labels[label_name] = _unescape_label_value(pair_match.group("value"))
        value = _parse_value(sample.group("value"))
        series = sample.group("name") + (
            "{" + ",".join(f'{k}="{labels[k]}"' for k in sorted(labels)) + "}"
            if labels
            else ""
        )
        entry = families.setdefault(
            family_for(sample.group("name")), {"type": None, "samples": {}}
        )
        if series in entry["samples"]:
            raise ValueError(f"line {lineno}: duplicate series {series!r}")
        entry["samples"][series] = value
    return families
