#!/usr/bin/env python3
"""The forminv benchmark: seeded closed-loop workloads over the library API.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 36 --trace 0

One client in one process runs jobs back to back (a closed loop, no
threads).  Each job parses a map document, runs the workload's library
calls and serializes the result.  A fixed pure-``fractions`` reference
product (``refloop``) is timed between jobs, and each job's time is also
reported in units of the two reference timings around it, which cancels
much of the machine's drift.

Each run has a fixed list of ``Workload.jobs`` distinct inputs drawn from
the seed.  ``--trace 0`` runs the list once and then over again from its
start until ``--seconds`` have passed and at least MIN_JOBS jobs are done,
and measures the end-to-end metrics over every job.  The list is what the
run attempts: ``attempted`` and ``failed`` count its inputs, judged on
their first pass, so they are the same in every run with the same seed.
``--trace 1`` runs the workload's first ``trace_jobs`` jobs untraced and
then traced (see ``tracing``) and reports per-layer metrics, including the
tracing overhead.  Either way the last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, and a full record (environment,
``output_digest``, failures) is written under ``perfbench/out/``.

Every output is checked: a job that raises or whose output fails the
independent check of ``linecheck`` is counted as failed, and the run goes
on.  A repeated input must give the same output hash as its first pass.
``correct`` is false if any failure is not the known defect of the
``identities`` workload (see ``workloads.Identities.known_defect``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import linecheck  # noqa: E402
import refloop  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 5
MIN_JOBS = 100  # so that p90 has ten samples beyond it
HARD_STOP_S = 140.0  # an untraced run stops here whatever --seconds says
REF_REPEATS = 8  # one reference timing is the mean of this many products

# Gated end-to-end metrics, as listed in BENCHMARK.json.
END_TO_END_UNITS = {
    "job_ref.p50": "ref",
    "job_ref.p90": "ref",
    "jobs_per_kref": "1/kref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Raw job times, printed and recorded but not gated: on a shared machine
# they drift with other load by more than any usable bound.
RAW_UNITS = {"jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms"}


class SetupError(Exception):
    pass


# -- set-up -----------------------------------------------------------------------


def import_forminv():
    """Import forminv afresh from this checkout's ``src``."""
    if not (SRC / "forminv" / "__init__.py").is_file():
        raise SetupError(f"no forminv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "forminv" or m.startswith("forminv.")]:
        del sys.modules[name]
    lib = importlib.import_module("forminv")
    if Path(lib.__file__).resolve().parent != (SRC / "forminv").resolve():
        raise SetupError(f"imported forminv from {lib.__file__}, not from {SRC}")
    return lib


def set_up(workload: Workload, seed: int):
    """Import, generate and serialize the run's inputs, and run one warm-up
    job on a fixed map (which also fills ``order_polynomial``'s cache).  Repeated
    SETUP_REPEATS times; returns the last library, inputs and all timings."""
    timings = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_forminv()
        inputs = workload.inputs(seed, 0, workload.jobs)
        workload.run(lib, workload.warmup_input())
        timings.append(time.perf_counter() - start)
    return lib, inputs, timings


# -- the job loop -------------------------------------------------------------------


@dataclass
class JobRecord:
    ns: int  # job wall time
    ref_s: float  # mean of the two reference timings around the job
    status: str  # ok, known_defect, failed, wrong, raised, or repeat (a later pass)
    detail: str
    digest: str
    bits: tuple  # (max, sum, count) of coefficient bit lengths in the output

    @property
    def job_ref(self) -> float:
        return self.ns / 1e9 / self.ref_s


def reference_time() -> float:
    return refloop.time_reference(REF_REPEATS)


def coefficient_bits(text: str) -> tuple:
    bits = [
        abs(c.numerator).bit_length() + c.denominator.bit_length()
        for doc in text.split("\n")
        for comp in linecheck.components(doc)
        for c in comp.values()
    ]
    return (max(bits, default=0), sum(bits), len(bits))


def judge(workload: Workload, inp, out, error, rng) -> tuple:
    """(status, detail, output hash, coefficient bits) of one job."""
    if error is not None:
        text = f"raised {type(error).__name__}"
        return "raised", f"{text}: {error}", _sha(text), (0, 0, 0)
    if not workload.check(inp, out, rng):
        status, detail = "wrong", "output fails the independent check"
    elif out.failures:
        status = "known_defect" if workload.known_defect(out) else "failed"
        detail = "; ".join(out.failures)
    else:
        status, detail = "ok", ""
    return status, detail, _sha(out.text), coefficient_bits(out.text)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_jobs(workload, lib, inputs, seed, *, seconds=0.0, limit=None, tracer=None):
    """Closed loop over ``inputs``, from the start again after the last one;
    stops after ``limit`` jobs, or else once every input has run and
    ``seconds`` have passed and MIN_JOBS jobs are done.

    Record i < len(inputs) holds the verdict on input i.  A later pass over
    an input is timed and recorded as a repeat; if its output hash differs
    from the first pass, input i's record is marked ``unstable``."""
    records = []
    ref_before = reference_time()
    start = time.perf_counter()
    while True:
        i = len(records)
        first = records[i % len(inputs)] if i >= len(inputs) else None
        inp = inputs[i % len(inputs)]
        out = error = None
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = workload.run(lib, inp)
            else:
                out = tracer.span("job", workload.run, lib, inp)
        except Exception as exc:  # counted as a failed job, the run goes on
            error = exc
        t1 = time.perf_counter_ns()
        ref_after = reference_time()
        ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        if first is None:
            verdict = judge(workload, inp, out, error, random.Random(f"check:{seed}:{i}"))
            records.append(JobRecord(t1 - t0, ref_s, *verdict))
        else:
            digest = _sha(out.text if error is None else f"raised {type(error).__name__}")
            if digest != first.digest:
                first.status, first.detail = "unstable", "a later pass gave another output"
            records.append(JobRecord(t1 - t0, ref_s, "repeat", "", digest, first.bits))
        elapsed = time.perf_counter() - start
        if limit is not None:
            if len(records) >= limit:
                break
        elif elapsed >= HARD_STOP_S or (
            len(records) >= max(MIN_JOBS, len(inputs)) and elapsed >= seconds
        ):
            break
    return records


def output_digest(records, count) -> str:
    """Hash of the first ``count`` jobs' output hashes, in job order."""
    return _sha("\n".join(r.digest for r in records[:count]))


# -- metrics ----------------------------------------------------------------------------


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def raw_times(records) -> dict:
    ms = [r.ns / 1e6 for r in records]
    return {
        "jobs_per_s": len(ms) / (sum(ms) / 1000),
        "job_ms.p50": statistics.median(ms),
        "job_ms.p90": p90(ms),
    }


def end_to_end(records, setups) -> dict:
    refs = [r.job_ref for r in records]
    return {
        "job_ref.p50": statistics.median(refs),
        "job_ref.p90": p90(refs),
        "jobs_per_kref": 1000 * len(refs) / sum(refs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


SERIES_OPS = ("mul", "add", "compose", "diff", "unit_inverse", "det", "jacobian", "param")
INVERSION_METHODS = ("fixed", "recurrent", "homog", "ag", "bcw", "jacobi")
TREE_OPS = ("enumerate", "root_sum", "order_polynomial")
TREE_SIZES = range(1, 7)  # wide: trees of up to 6 vertices (degree 7)
FLOW_CHECKS = (
    "deformation_inverse", "pde_residual", "formal_flow", "power_map",
    "check_lemma31", "check_euler_identities", "check_prop310",
)
LOWER, HIGHER = "lower", "higher"


def per_layer_units() -> dict:
    """name -> (unit, better) for every per-layer metric."""
    m = {}
    for op in SERIES_OPS:
        m[f"series.{op}.calls"] = ("count", LOWER)
        m[f"series.{op}.self_share"] = ("share", LOWER)
    m["series.mul.pairs"] = ("count", LOWER)
    m["series.mul.out_terms"] = ("count", LOWER)
    m["series.peak_terms"] = ("terms", LOWER)
    m["rat.coeff_bits.max"] = ("bits", LOWER)
    m["rat.coeff_bits.mean"] = ("bits", LOWER)
    m["rat.from_str.self_share"] = ("share", LOWER)
    m["rat.to_str.self_share"] = ("share", LOWER)
    for meth in INVERSION_METHODS:
        m[f"inversion.{meth}.share"] = ("share", LOWER)
        m[f"inversion.{meth}.calls"] = ("count", LOWER)
    m["inversion.fixed.passes"] = ("count", LOWER)
    m["inversion.homog.bform.calls"] = ("count", LOWER)
    m["inversion.homog.bform.self_share"] = ("share", LOWER)
    m["inversion.homog.compose_per_bform"] = ("count", LOWER)
    m["inversion.cross_check.self_share"] = ("share", LOWER)
    for op in TREE_OPS:
        m[f"trees.{op}.calls"] = ("count", LOWER)
        m[f"trees.{op}.self_share"] = ("share", LOWER)
    m["trees.root_sum.hit_ratio"] = ("share", HIGHER)
    m["trees.root_sum.zero_frac"] = ("share", LOWER)
    for k in TREE_SIZES:
        m[f"trees.root_sum.self_share.size{k}"] = ("share", LOWER)
    m["laurent.inv_power.calls"] = ("count", LOWER)
    m["laurent.inv_power.self_share"] = ("share", LOWER)
    m["laurent.residue.calls"] = ("count", LOWER)
    for name in FLOW_CHECKS:
        m[f"flow.{name}.calls"] = ("count", LOWER)
        m[f"flow.{name}.self_share"] = ("share", LOWER)
    m["mapdoc.parse.self_share"] = ("share", LOWER)
    m["mapdoc.serialize.self_share"] = ("share", LOWER)
    m["mapdoc.bytes_in"] = ("bytes", LOWER)
    m["mapdoc.bytes_out"] = ("bytes", LOWER)
    m["trace.overhead"] = ("share", LOWER)
    m["trace.spans"] = ("count", LOWER)
    m["env.ref_ms"] = ("ms", LOWER)
    return m


def per_layer(tracer: tracing.Tracer, untraced, traced) -> dict:
    """Per-layer metrics of the traced jobs.  Counts are totals over those
    jobs; times are shares of their summed wall time."""
    spans = tracer.spans
    stats = tracing.summarize(spans)
    job_ns = sum(r.ns for r in traced)
    empty = tracing.NameStats()

    def st(name):
        return stats.get(name, empty)

    def calls(name):
        return st(name).calls

    def self_share(name):
        return st(name).self_ns / job_ns

    def ratio(num, den):
        return num / den if den else 0.0

    counters = tracer.counters
    root_sums = [st(f"trees.root_sum.size{k}") for k in TREE_SIZES]
    m = {}
    for op in SERIES_OPS:
        m[f"series.{op}.calls"] = calls(f"series.{op}")
        m[f"series.{op}.self_share"] = self_share(f"series.{op}")
    m["series.mul.pairs"] = counters.get("series.mul.pairs", 0)
    m["series.mul.out_terms"] = counters.get("series.mul.out_terms", 0)
    m["series.peak_terms"] = counters.get("series.peak_terms", 0)
    bits = [r.bits for r in traced]
    m["rat.coeff_bits.max"] = max(b[0] for b in bits)
    m["rat.coeff_bits.mean"] = ratio(sum(b[1] for b in bits), sum(b[2] for b in bits))
    m["rat.from_str.self_share"] = self_share("rat.from_str")
    m["rat.to_str.self_share"] = self_share("rat.to_str")
    for meth in INVERSION_METHODS:
        m[f"inversion.{meth}.share"] = st(f"inversion.{meth}").total_ns / job_ns
        m[f"inversion.{meth}.calls"] = calls(f"inversion.{meth}")
    m["inversion.fixed.passes"] = ratio(
        tracing.child_counts(spans, "series.compose", "inversion.fixed"), calls("inversion.fixed")
    )
    m["inversion.homog.bform.calls"] = calls("inversion.homog.bform")
    m["inversion.homog.bform.self_share"] = self_share("inversion.homog.bform")
    m["inversion.homog.compose_per_bform"] = ratio(
        tracing.child_counts(spans, "series.compose", "inversion.homog.bform"),
        calls("inversion.homog.bform"),
    )
    m["inversion.cross_check.self_share"] = self_share("inversion.cross_check")
    for op in ("enumerate", "order_polynomial"):
        m[f"trees.{op}.calls"] = calls(f"trees.{op}")
        m[f"trees.{op}.self_share"] = self_share(f"trees.{op}")
    m["trees.root_sum.calls"] = sum(s.calls for s in root_sums)
    m["trees.root_sum.self_share"] = sum(s.self_ns for s in root_sums) / job_ns
    seen = counters.get("trees.root_sum.calls_seen", 0)
    m["trees.root_sum.hit_ratio"] = ratio(counters.get("trees.root_sum.repeats", 0), seen)
    m["trees.root_sum.zero_frac"] = ratio(counters.get("trees.root_sum.zero", 0), seen)
    for k, s in zip(TREE_SIZES, root_sums):
        m[f"trees.root_sum.self_share.size{k}"] = s.self_ns / job_ns
    m["laurent.inv_power.calls"] = calls("laurent.inv_power")
    m["laurent.inv_power.self_share"] = self_share("laurent.inv_power")
    m["laurent.residue.calls"] = calls("laurent.residue")
    for name in FLOW_CHECKS:
        m[f"flow.{name}.calls"] = calls(f"flow.{name}")
        m[f"flow.{name}.self_share"] = self_share(f"flow.{name}")
    m["mapdoc.parse.self_share"] = self_share("mapdoc.parse")
    m["mapdoc.serialize.self_share"] = self_share("mapdoc.serialize")
    m["mapdoc.bytes_in"] = counters.get("mapdoc.bytes_in", 0)
    m["mapdoc.bytes_out"] = counters.get("mapdoc.bytes_out", 0)
    m["trace.overhead"] = sum(r.job_ref for r in traced) / sum(r.job_ref for r in untraced) - 1
    m["trace.spans"] = len(spans)
    m["env.ref_ms"] = 1000 * statistics.median(r.ref_s for r in untraced + traced)
    return m


# -- environment and output -------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(lib, records) -> dict:
    return {
        "python": platform.python_version(),
        "rational_backend": type(lib.Rat(1)).__module__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "ref_ms_median": 1000 * statistics.median(r.ref_s for r in records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        lib, inputs, setups = set_up(workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    trace_jobs = workload.trace_jobs
    if args.trace:
        untraced = run_jobs(workload, lib, inputs, args.seed, limit=trace_jobs)
        tracer = tracing.Tracer()
        tracing.install_forminv(tracer, lib)
        try:
            traced = run_jobs(workload, lib, inputs, args.seed, limit=trace_jobs, tracer=tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        digest = output_digest(traced, trace_jobs)
        digests_agree = digest == output_digest(untraced, trace_jobs)
        metrics = per_layer(tracer, untraced, traced)
        raw = {}
        units = {k: u for k, (u, _) in per_layer_units().items()}
        samples = {k: trace_jobs for k in metrics}
        tracer.spans.write(OUT / f"spans-{workload.name}-seed{args.seed}")
    else:
        records = run_jobs(workload, lib, inputs, args.seed, seconds=args.seconds)
        digest = output_digest(records, trace_jobs)
        digests_agree = True
        metrics = end_to_end(records, setups)
        units = END_TO_END_UNITS
        raw = raw_times(records)
        samples = {k: len(records) for k in [*metrics, *raw]}
        samples["setup_s"] = len(setups)
        samples["peak_rss_mb"] = 1

    judged = traced if args.trace else records[: len(inputs)]
    failed = sum(r.status != "ok" for r in judged)
    unexplained = sum(r.status not in ("ok", "known_defect") for r in judged)
    correct = unexplained == 0 and digests_agree
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(lib, records),
        "output_digest": digest,
        "digest_jobs": trace_jobs,
        "digests_agree_traced_untraced": digests_agree if args.trace else None,
        "jobs": len(judged),
        "timed_jobs": len(records),
        "failed_frac": failed / len(judged),
        "known_defect_jobs": sum(r.status == "known_defect" for r in judged),
        "failures": Counter(f"{r.status}: {r.detail}" for r in judged if r.status != "ok"),
        "setup_s": setups,
        "job_ms": [round(r.ns / 1e6, 3) for r in records],
        "job_ref": [round(r.job_ref, 3) for r in records],
        "metrics": {k: {"value": v, "unit": units[k], "samples": samples[k]} for k, v in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": RAW_UNITS[k], "samples": samples[k]} for k, v in raw.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(judged)} inputs, {len(records)} timed jobs")
    for key, value in record["environment"].items():
        print(f"  env {key} = {value}")
    for k, v in metrics.items():
        print(f"  {k:42s} {v:16.6f} {units[k]:8s} n={samples[k]}")
    for k, v in raw.items():
        print(f"  {k:42s} {v:16.6f} {RAW_UNITS[k]:8s} n={samples[k]} (raw, not gated)")
    print(f"  failed_frac = {record['failed_frac']:.4f} "
          f"({record['known_defect_jobs']} known-defect jobs of {failed} failed)")
    for text, count in record["failures"].items():
        print(f"    {count} x {text}")
    print(f"  output_digest = {digest} (first {trace_jobs} jobs)")
    print(f"  record written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(judged),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
