"""Benchmark harness comparing the inversion methods.

Per (input, method, degree) cell: wall time as the median of a fixed
number of runs, size of the resulting series, and a hash of its canonical
serialization.  All methods run on the same input must hash-agree or the
whole benchmark aborts with a diagnostic; timings are never reported for
results that failed agreement.  Cells run one after another in one
process, so no cell is timed while another competes for the CPU.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

from .errors import MethodDisagreement
from .inversion import METHODS, applicable_methods
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


def agreement_hash(g, degree) -> str:
    return hashlib.sha256(
        serialize_polymap(g.truncate(degree), degree).encode()
    ).hexdigest()[:16]


def _run_cell(input_id, f, method, degree, runs):
    times = []
    g = None
    for _ in range(runs):
        start = time.perf_counter()
        g = METHODS[method](f, degree)
        times.append((time.perf_counter() - start) * 1000.0)
    g = g.truncate(degree)
    return BenchRecord(
        input_id=input_id,
        method=method,
        degree=degree,
        millis=statistics.median(times),
        terms=sum(len(c.terms) for c in g.components),
        agree_hash=agreement_hash(g, degree),
    )


def run_bench(
    inputs: Sequence[tuple[str, MapF]],
    methods: Sequence[str],
    degrees: Sequence[int],
    runs: int = 3,
) -> tuple[list[BenchRecord], list[SkipNote]]:
    """Execute the benchmark grid.  Inapplicable method/input pairs (e.g.
    the homogeneous-only recurrence on a mixed-degree map) are skipped with
    a note rather than failing the run."""
    records = []
    skips = []
    for input_id, f in inputs:
        usable = set(applicable_methods(f, methods))
        for method in methods:
            if method not in usable:
                skips.append(
                    SkipNote(input_id, method, "precondition not met, skipped")
                )
                continue
            for degree in degrees:
                records.append(_run_cell(input_id, f, method, degree, runs))
    _check_agreement(records)
    return records, skips


def _check_agreement(records: list[BenchRecord]):
    by_cell: dict = {}
    for r in records:
        by_cell.setdefault((r.input_id, r.degree), []).append(r)
    for (input_id, degree), group in by_cell.items():
        hashes = {r.agree_hash for r in group}
        if len(hashes) > 1:
            details = ", ".join(f"{r.method}={r.agree_hash}" for r in group)
            raise MethodDisagreement(
                f"hash mismatch on input {input_id!r} at degree {degree}: {details}"
            )


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
