"""Tests of the benchmark itself: span arithmetic, wrapper installation,
failure accounting, output digests, the independent checks and the
agreement between the code and BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import random
import shutil
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import linecheck
import maps
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def lib():
    return run.import_forminv()


class TinyWide(workloads.Wide):
    degree = 4


class TinyIdentities(workloads.Identities):
    degree = 4


# -- span arithmetic ----------------------------------------------------------


def synthetic_spans():
    spans = tracing.Spans()
    job = spans.add("job", 0, 100)
    a = spans.add("a", 10, 40, parent=job)
    spans.add("b", 15, 25, parent=a)
    spans.add("b", 50, 90, parent=job)
    return spans


def test_self_time_is_span_minus_direct_children():
    assert tracing.self_times(synthetic_spans()) == [30, 20, 10, 40]


def test_summary_and_child_counts():
    spans = synthetic_spans()
    stats = tracing.summarize(spans)
    assert (stats["b"].calls, stats["b"].total_ns, stats["b"].self_ns) == (2, 50, 50)
    assert (stats["job"].total_ns, stats["job"].self_ns) == (100, 30)
    assert sum(s.self_ns for s in stats.values()) == 100
    assert tracing.child_counts(spans, "b", "a") == 1
    assert tracing.child_counts(spans, "b", "job") == 1
    assert tracing.child_counts(spans, "a", "b") == 0
    assert tracing.child_counts(spans, "missing", "job") == 0


def test_same_name_nesting_collapses_unless_reentrant():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    ns.rec = lambda k: 0 if k == 0 else ns.rec(k - 1) + 1
    tracer = tracing.Tracer()
    tracer.install(ns.inner, "op", [ns])
    tracer.install(ns.outer, "op", [ns])
    tracer.install(ns.rec, "rec", [ns], reentrant=True)
    assert ns.outer(1) == 4 and ns.rec(3) == 3
    stats = tracing.summarize(tracer.spans)
    assert stats["op"].calls == 1
    assert stats["rec"].calls == 4
    tracer.uninstall()
    assert not hasattr(ns.outer, "__wrapped__")


def test_wrappers_reach_every_lookup_site_and_come_off(lib):
    series, inversion, flow = lib.series, lib.inversion, lib.flow
    sites = {
        "radd": lambda: vars(series.MSeries)["__radd__"],
        "add": lambda: vars(series.MSeries)["__add__"],
        "methods_fixed": lambda: inversion.METHODS["fixed"],
        "methods_recurrent": lambda: inversion.METHODS["recurrent"],
        "inv_unit_inverse": lambda: inversion.unit_inverse,
        "inv_series_det": lambda: inversion.series_det,
        "inv_jacobian_det": lambda: inversion.jacobian_det,
        "flow_compose": lambda: flow.compose_map_components,
        "flow_order_polynomial": lambda: flow.order_polynomial,
        "flow_invert_recurrent": lambda: flow.invert_recurrent,
        "package_cross_check": lambda: lib.cross_check,
    }
    before = {k: get() for k, get in sites.items()}
    tracer = tracing.Tracer()
    tracing.install_forminv(tracer, lib)
    try:
        for key, get in sites.items():
            assert get().__wrapped__ is before[key], key
    finally:
        tracer.uninstall()
    for key, get in sites.items():
        assert get() is before[key], key


# -- failures, digests and checks ---------------------------------------------


def test_failed_job_is_counted_not_raised(lib, monkeypatch):
    def corrupt(f, degree):
        g = lib.inversion.invert_fixed_point(f, degree)
        bad = g.components[0] + lib.MSeries.monomial(3, (1, 1, 0), 1, degree)
        return lib.PolyMap([bad] + list(g.components[1:]))

    monkeypatch.setitem(lib.inversion.METHODS, "recurrent", corrupt)
    wl = TinyWide()
    records = run.run_jobs(wl, lib, wl.inputs(1, 0, 2), 1, limit=2)
    assert [r.status for r in records] == ["raised", "raised"]
    assert "MethodDisagreement" in records[0].detail


def test_wrong_output_is_caught_by_the_independent_check(lib, monkeypatch):
    wl = TinyWide()
    real = wl.run

    def tampered(lib_, inp):
        out = real(lib_, inp)
        doc = json.loads(out.text)
        doc["components"][0][-1]["c"] = str(Fraction(doc["components"][0][-1]["c"]) + 1)
        out.text = json.dumps(doc)
        return out

    monkeypatch.setattr(wl, "run", tampered)
    records = run.run_jobs(wl, lib, wl.inputs(2, 0, 1), 2, limit=1)
    assert records[0].status == "wrong"


def test_later_passes_repeat_the_inputs_and_must_agree(lib, monkeypatch):
    monkeypatch.setattr(run, "MIN_JOBS", 5)
    wl = TinyWide()
    inputs = wl.inputs(3, 0, 2)
    records = run.run_jobs(wl, lib, inputs, 3, seconds=0.0)
    assert len(records) == 5
    assert [r.status for r in records] == ["ok", "ok", "repeat", "repeat", "repeat"]
    assert [r.digest for r in records[2:]] == [records[i % 2].digest for i in range(2, 5)]

    real = wl.run
    calls = []

    def drifting(lib_, inp):
        out = real(lib_, inp)
        calls.append(None)
        if len(calls) == 4:
            out.text += " "
        return out

    monkeypatch.setattr(wl, "run", drifting)
    records = run.run_jobs(wl, lib, inputs, 3, seconds=0.0)
    assert [r.status for r in records[:2]] == ["ok", "unstable"]


@pytest.mark.parametrize("wl", [TinyWide(), TinyIdentities()], ids=lambda w: w.name)
def test_digest_equal_traced_and_untraced(lib, wl):
    inputs = wl.inputs(7, 0, 3)
    untraced = run.run_jobs(wl, lib, inputs, 7, limit=3)
    tracer = tracing.Tracer()
    tracing.install_forminv(tracer, lib)
    try:
        traced = run.run_jobs(wl, lib, inputs, 7, limit=3, tracer=tracer)
    finally:
        tracer.uninstall()
    assert run.output_digest(untraced, 3) == run.output_digest(traced, 3)
    assert len(tracer.spans) > 3
    assert all(r.status in ("ok", "known_defect") for r in untraced + traced)


def test_known_lemma31_defect_is_classified(lib):
    half = Fraction(1, 2)
    h = [
        {(0, 2, 1): Fraction(-2)},
        {(3, 0, 0): half},
        {(1, 1, 1): Fraction(-1), (2, 0, 1): half, (3, 0, 0): Fraction(-1)},
    ]
    wl = workloads.Identities()
    inp = workloads.Input(maps.document(h, 6), h, ((0, (1, 1, 0)),))
    out = wl.run(lib, inp)
    assert out.failures == [workloads.LEMMA31_NILPOTENCY]
    assert wl.known_defect(out)
    status, *_ = run.judge(wl, inp, out, None, random.Random(0))
    assert status == "known_defect"


def test_linecheck_accepts_inverse_and_rejects_a_changed_coefficient(lib):
    h = maps.wide_map(random.Random(3), 0)
    f = lib.mapdoc.parse_map(maps.document(h, 5)).to_mapf()
    g = lib.inversion.invert_recurrent(f, 5).inverse_map()
    text = lib.mapdoc.serialize_polymap(g, 5)
    assert linecheck.is_inverse(h, text, 5, random.Random(1))
    comps = linecheck.components(text)
    exp = max(comps[1], key=sum)
    comps[1][exp] += Fraction(1, 3)
    bad = maps.document([{e: -c for e, c in comp.items()} for comp in comps], 5)
    # document() writes z - (-G + z) = G back; compare against G's own text
    assert not linecheck.is_inverse(h, bad, 5, random.Random(1))
    square = lib.flow.power_map(f, 2, 5)
    assert linecheck.is_square(h, lib.mapdoc.serialize_polymap(square, 5), 5, random.Random(2))


# -- inputs --------------------------------------------------------------------


def test_inputs_repeat_per_seed_and_ignore_batching():
    wl = workloads.WORKLOADS["identities"]
    whole = wl.inputs(5, 0, 6)
    assert [i.doc for i in whole] == [i.doc for i in wl.inputs(5, 0, 3) + wl.inputs(5, 3, 3)]
    assert [i.doc for i in whole] != [i.doc for i in wl.inputs(6, 0, 6)]
    shapes = [(len(i.h), sum(next(iter(i.h[0])))) for i in whole[:4]]
    assert shapes == list(maps.IDENTITY_SHAPES)


# -- the benchmark definition --------------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_units()


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
