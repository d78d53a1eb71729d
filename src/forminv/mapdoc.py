"""Map documents: the JSON wire format for polynomial maps.

One document describes one self-map as exact data:

    {"n": 1,
     "vars": ["z"],
     "D": 8,
     "components": [[{"exp": [1], "c": "1"}, {"exp": [2], "c": "-1"}]],
     "metadata": {}}

Coefficients are rational strings ("p/q" or "p"), never floats; exponents
are integer arrays.  The listed terms are the whole polynomial; ``D`` is
the document's default working degree for inversion commands and an upper
bound on the degree of the listed terms.  ``parse_map`` checks the JSON
shape of each term (an object, a list of integers, a coefficient literal)
and hands each component's terms to ``series.series_from_terms``, the one
validation of outside terms: it rejects a wrong exponent length, a
negative exponent and a term above D, sums duplicate exponents and drops
zero coefficients.  A ``MapDocument`` holds the resulting map itself.
Serialization is canonical (fixed key order, graded-lexicographic term
order, compact separators), so serialize(parse(serialize(x))) is
byte-identical to serialize(x).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .errors import ForminvError, MapFormatError
from .rat import rat_from_str, rat_to_str
from .series import MapF, PolyMap, default_names, series_from_terms


@dataclass
class MapDocument:
    map: PolyMap  # exact (truncation INF) when parsed
    degree: int
    names: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.names:
            self.names = default_names(self.n)

    @property
    def n(self) -> int:
        return self.map.n

    def to_mapf(self) -> MapF:
        try:
            return MapF.from_map(self.map)
        except ForminvError as exc:
            raise MapFormatError(f"document is not a canonical map: {exc}") from exc


def _integer(raw: dict, key: str) -> int:
    """raw[key] if it is a JSON integer: not a bool, a float or a string."""
    value = raw[key]
    if type(value) is not int:
        raise MapFormatError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def parse_map(text: str) -> MapDocument:
    """Parse and validate a map document; raises MapFormatError with the
    offending location on bad syntax or invariant violations.  Nothing is
    coerced: n, D and exponent entries must be JSON integers, coefficients
    rational strings or JSON integers."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError:  # an integer literal past Python's digit limit
        raise MapFormatError(
            "a JSON integer has more digits than Python converts "
            f"({sys.get_int_max_str_digits()}-digit limit)"
        ) from None
    except RecursionError:
        raise MapFormatError(
            f"JSON nested past Python's recursion limit ({sys.getrecursionlimit()})"
        ) from None
    if not isinstance(raw, dict):
        raise MapFormatError("document must be a JSON object")
    try:
        n = _integer(raw, "n")
        degree = _integer(raw, "D")
        comps_raw = raw["components"]
    except KeyError as exc:
        raise MapFormatError(f"missing required field {exc.args[0]!r}") from exc
    if n < 1:
        raise MapFormatError(f"n must be >= 1, got {n}")
    if degree < 1:
        raise MapFormatError(f"D must be >= 1, got {degree}")
    if not isinstance(comps_raw, list) or len(comps_raw) != n:
        raise MapFormatError(
            f"components must be a list of exactly n={n} term lists"
        )
    names = raw.get("vars")
    if names is None:
        names = default_names(n)
    if (
        not isinstance(names, list)
        or not all(isinstance(x, str) for x in names)
        or len(names) != n
        or len(set(names)) != n
    ):
        raise MapFormatError(f"vars must be a list of n={n} distinct strings")
    metadata = raw.get("metadata")
    if metadata is None:
        metadata = {}
    if not isinstance(metadata, dict):
        raise MapFormatError("metadata must be a JSON object")
    components = []
    for ci, terms_raw in enumerate(comps_raw):
        if not isinstance(terms_raw, list):
            raise MapFormatError(f"component {ci + 1} must be a list of terms")
        items = []
        for ti, term in enumerate(terms_raw):
            where = f"component {ci + 1}, term {ti + 1}"
            if not isinstance(term, dict):
                raise MapFormatError(f"{where}: a term must be an object")
            try:
                exp, c = term["exp"], term["c"]
            except KeyError as exc:
                raise MapFormatError(f"{where}: missing {exc.args[0]!r}") from exc
            if not isinstance(exp, list) or any(type(k) is not int for k in exp):
                raise MapFormatError(
                    f"{where}: exp must be a list of integers, got {json.dumps(exp)}"
                )
            if type(c) is not int and not isinstance(c, str):
                raise MapFormatError(
                    f"{where}: c must be a rational string or an integer, "
                    f"got {json.dumps(c)}"
                )
            try:
                items.append((exp, rat_from_str(str(c))))
            except ValueError as exc:
                raise MapFormatError(f"{where}: {exc}") from exc
        try:
            components.append(series_from_terms(n, degree, items).as_exact())
        except ForminvError as exc:
            raise MapFormatError(f"component {ci + 1}: {exc}") from exc
    return MapDocument(
        map=PolyMap(components),
        degree=degree,
        names=list(names),
        metadata=dict(metadata),
    )


def serialize_map(doc: MapDocument) -> str:
    """Canonical single-line JSON: fixed key order, graded-lex terms."""
    payload = {
        "n": doc.n,
        "vars": list(doc.names),
        "D": doc.degree,
        "components": [
            [
                {"exp": list(e), "c": rat_to_str(c)}
                for e, c in sorted(comp.terms.items(), key=lambda t: (sum(t[0]), t[0]))
            ]
            for comp in doc.map
        ],
    }
    if doc.metadata:
        payload["metadata"] = doc.metadata
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def serialize_polymap(m: PolyMap, degree: int) -> str:
    return serialize_map(MapDocument(m, degree))
