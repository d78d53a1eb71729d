"""Benchmark harness comparing the inversion methods.

Each (input, degree) cell is one ``inversion.run_methods`` call: every
applicable method runs a fixed number of times, and its inverse must
equal the first method's coefficient for coefficient through the degree
as soon as it exists.  A disagreement aborts the benchmark at that cell,
naming the input, the degree, both methods and the first differing
coefficient, so no timing is reported for results that failed agreement.
Per (input, method, degree) the record holds the median wall time, the
size of the agreed inverse and a hash of its canonical serialization.
Cells run one after another in one process, so no cell is timed while
another competes for the CPU.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
from dataclasses import dataclass
from typing import Sequence

from .errors import MethodDisagreement
from .inversion import applicable_methods, run_methods
from .mapdoc import serialize_polymap
from .series import MapF

CSV_COLUMNS = ("input_id", "method", "degree", "millis", "terms", "agree_hash")


@dataclass
class BenchRecord:
    input_id: str
    method: str
    degree: int
    millis: float
    terms: int
    agree_hash: str

    def row(self):
        return (
            self.input_id,
            self.method,
            str(self.degree),
            f"{self.millis:.3f}",
            str(self.terms),
            self.agree_hash,
        )


@dataclass
class SkipNote:
    input_id: str
    method: str
    reason: str


def run_bench(
    inputs: Sequence[tuple[str, MapF]],
    methods: Sequence[str],
    degrees: Sequence[int],
    runs: int = 3,
) -> tuple[list[BenchRecord], list[SkipNote]]:
    """Execute the benchmark grid, one (input, degree) cell at a time.
    Inapplicable method/input pairs (e.g. the homogeneous-only recurrence
    on a mixed-degree map) are skipped with a note rather than failing the
    run.  Records come per input, then method, then degree."""
    records = []
    skips = []
    for input_id, f in inputs:
        usable = applicable_methods(f, methods)
        skips.extend(
            SkipNote(input_id, method, "precondition not met, skipped")
            for method in methods
            if method not in usable
        )
        if not usable:
            continue
        by_method = {name: [] for name in usable}
        for degree in degrees:
            try:
                results = run_methods(f, degree, usable, runs)
            except MethodDisagreement as exc:
                raise MethodDisagreement(
                    f"input {input_id!r} at degree {degree}: {exc}"
                ) from None
            g = results[0][1]
            terms = sum(len(c._view.rows) for c in g.components)
            digest = hashlib.sha256(serialize_polymap(g, degree).encode()).hexdigest()
            for name, _, times in results:
                millis = statistics.median(times)
                by_method[name].append(
                    BenchRecord(input_id, name, degree, millis, terms, digest[:16])
                )
        for cells in by_method.values():
            records.extend(cells)
    return records, skips


def to_csv(records: Sequence[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(r.row())
    return buf.getvalue()


def to_table(records: Sequence[BenchRecord], skips: Sequence[SkipNote] = ()) -> str:
    lines = [
        f"{'input':16s} {'method':10s} {'deg':>4s} {'millis':>12s} {'terms':>8s}  hash"
    ]
    for r in records:
        lines.append(
            f"{r.input_id:16s} {r.method:10s} {r.degree:4d} {r.millis:12.3f} "
            f"{r.terms:8d}  {r.agree_hash}"
        )
    ranking = _ranking(records)
    if ranking:
        lines.append("")
        lines.append("observed ranking per degree (fastest first, not asserted):")
        for degree, order in ranking:
            lines.append(f"  D={degree}: {' < '.join(order)}")
    for s in skips:
        lines.append(f"note: {s.method} skipped on {s.input_id}: {s.reason}")
    return "\n".join(lines)


def _ranking(records: Sequence[BenchRecord]):
    by_degree: dict = {}
    for r in records:
        by_degree.setdefault(r.degree, {}).setdefault(r.method, []).append(r.millis)
    out = []
    for degree in sorted(by_degree):
        totals = {m: sum(v) for m, v in by_degree[degree].items()}
        out.append((degree, sorted(totals, key=totals.get)))
    return out
