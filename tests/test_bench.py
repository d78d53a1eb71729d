"""Benchmark harness: agreement gating, CSV shape, skip notes."""

import pytest

from forminv import MapF, MethodDisagreement, MSeries, PolyMap
from forminv.bench import run_bench, to_csv, to_table
from forminv import inversion
from forminv.inversion import METHODS, invert_fixed_point, invert_recurrent


@pytest.fixture
def shear():
    return MapF(PolyMap([MSeries.monomial(2, (0, 2), 1), MSeries.zero(2)]))


def test_records_and_csv(shear):
    records, skips = run_bench([("shear", shear)], ("fixed", "recurrent"), (4, 6), runs=1)
    assert len(records) == 4 and not skips
    csv_text = to_csv(records)
    assert csv_text.splitlines()[0] == "input_id,method,degree,millis,terms,agree_hash"
    table = to_table(records)
    assert "observed ranking" in table


def test_homog_skipped_with_note():
    mixed = MapF(
        PolyMap([MSeries.monomial(1, (2,), 1) + MSeries.monomial(1, (3,), 1)])
    )
    records, skips = run_bench([("mixed", mixed)], ("fixed", "homog"), (4,), runs=1)
    assert [r.method for r in records] == ["fixed"]
    assert skips and skips[0].method == "homog"


def test_disagreement_aborts(shear, monkeypatch):
    def corrupt(f, degree):
        g = invert_fixed_point(f, degree)
        bad = g.components[0] + MSeries.monomial(2, (1, 1), 1, degree)
        return PolyMap([bad, g.components[1]])

    monkeypatch.setitem(METHODS, "recurrent", corrupt)
    with pytest.raises(MethodDisagreement):
        run_bench([("shear", shear)], ("fixed", "recurrent"), (4,), runs=1)



def test_disagreement_stops_at_the_first_cell(shear, monkeypatch):
    called = []

    def corrupt(f, degree):
        called.append(degree)
        g = invert_fixed_point(f, degree)
        bad = g.components[0] + MSeries.monomial(2, (1, 1), 1, degree)
        return PolyMap([bad, g.components[1]])

    monkeypatch.setitem(METHODS, "recurrent", corrupt)
    with pytest.raises(MethodDisagreement) as exc:
        run_bench([("shear", shear)], ("fixed", "recurrent"), (4, 6), runs=1)
    message = str(exc.value)
    assert "input 'shear' at degree 4" in message
    assert "methods 'fixed' and 'recurrent'" in message
    assert "component 1, exponent (1, 1): 0 vs 1" in message
    assert called == [4]


def test_every_timed_run_builds_the_layers(monkeypatch, shear):
    """The deformation that ``invert_recurrent`` keeps on H is not reused
    by a timed run: each of the runs builds the layers again, even after
    the same map was inverted before the benchmark."""
    builds = []
    real = inversion.recurrent_layers

    def counted(h, count, cap=None):
        builds.append(cap)
        return real(h, count, cap)

    monkeypatch.setattr(inversion, "recurrent_layers", counted)
    invert_recurrent(shear, 6)
    run_bench([("shear", shear)], ("recurrent",), (6,), runs=3)
    assert builds == [6] * 4
