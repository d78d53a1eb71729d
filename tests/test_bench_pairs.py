"""The pair-benchmark tool's seed parsing and per-metric summary."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

from test_source_hygiene import code_tokens

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_seeds_apply_to_one_workload_or_to_all():
    seeds = bench_pairs.parse_seeds(["deep=3-5", "7"])
    assert seeds == {"deep": [3, 4, 5, 7], "wide": [7], "identities": [7]}
    with pytest.raises(SystemExit):
        bench_pairs.parse_seeds(["tall=1"])


def test_summary_counts_wins_in_the_better_direction():
    metrics = [
        {"name": "job_ref.p50", "better": "lower", "bound": 0.2},
        {"name": "jobs_per_kref", "better": "higher", "bound": 0.25},
    ]
    parent = [10.0, 11.0, 12.0, 13.0]
    change = [5.0, 6.0, 12.5, 7.0]
    pairs = [
        {"parent": {"metrics": {"job_ref.p50": p, "jobs_per_kref": 1 / p}},
         "change": {"metrics": {"job_ref.p50": c, "jobs_per_kref": 1 / c}}}
        for p, c in zip(parent, change)
    ]
    summary = bench_pairs.workload_summary(pairs, metrics)
    p50 = summary["job_ref.p50"]
    assert p50["change_better_in"] == "3/4"
    assert p50["parent"]["median"] == 11.5 and p50["change"]["median"] == 6.5
    assert p50["median_gain_exceeds_parent_iqr"]
    assert not p50["gain_shown"]  # 3/4 pairs is below 9/10
    assert summary["jobs_per_kref"]["change_better_in"] == "3/4"
    assert p50["within_bound"] and p50["unresolved"]
    assert summary["jobs_per_kref"]["within_bound"]
    assert not summary["jobs_per_kref"]["unresolved"]


@pytest.mark.parametrize(
    "parent, change, better, within_bound, unresolved",
    [
        # narrow parent spread: the bound decides
        ([10.0, 10.1, 10.2, 10.3], [11.9, 12.0, 12.1, 12.2], "lower", True, False),
        ([10.0, 10.1, 10.2, 10.3], [12.9, 13.0, 13.1, 13.2], "lower", False, False),
        ([10.0, 10.1, 10.2, 10.3], [7.7, 7.8, 7.9, 8.0], "higher", False, False),
        ([10.0, 10.1, 10.2, 10.3], [8.3, 8.4, 8.5, 8.6], "higher", True, False),
        # parent spread wider than the bound: unresolved either way ...
        ([8.0, 10.0, 12.0, 14.0], [9.0, 11.0, 13.0, 15.0], "lower", True, True),
        ([8.0, 10.0, 12.0, 14.0], [12.0, 14.0, 16.0, 18.0], "lower", False, True),
        # ... unless every change run beats every parent run
        ([8.0, 10.0, 12.0, 14.0], [4.0, 5.0, 6.0, 7.0], "lower", True, False),
        ([8.0, 10.0, 12.0, 14.0], [15.0, 16.0, 17.0, 18.0], "higher", True, False),
    ],
)
def test_summary_marks_bound_and_unresolved(parent, change, better, within_bound, unresolved):
    metrics = [{"name": "m", "better": better, "bound": 0.2}]
    pairs = [{"parent": {"metrics": {"m": p}}, "change": {"metrics": {"m": c}}}
             for p, c in zip(parent, change)]
    summary = bench_pairs.workload_summary(pairs, metrics)["m"]
    assert summary["within_bound"] is within_bound
    assert summary["unresolved"] is unresolved


@pytest.mark.parametrize(
    "change, shown",
    [
        # 9 wins and a tie in 10 pairs, gain far above the parent's spread
        ([9.0] * 9 + [10.2], True),
        # 8 wins and two ties: the ties count for neither side
        ([9.0] * 8 + [9.8, 10.2], False),
        # 10 wins, but the median gain is inside the parent's spread
        ([9.7, 10.1] * 5, False),
    ],
)
def test_gain_shown_needs_nine_in_ten_and_the_parent_spread(change, shown):
    parent = [9.8, 10.2] * 5  # median 10.0, quartiles 9.8 and 10.2
    metrics = [{"name": "m", "better": "lower", "bound": 0.2}]
    pairs = [{"parent": {"metrics": {"m": p}}, "change": {"metrics": {"m": c}}}
             for p, c in zip(parent, change)]
    assert bench_pairs.workload_summary(pairs, metrics)["m"]["gain_shown"] is shown


def test_checkout_without_git_gets_a_source_digest(tmp_path):
    for name in ("one", "two"):
        src = tmp_path / name / "src" / "forminv"
        src.mkdir(parents=True)
        (src / "series.py").write_text("X = 1\n")
        (src / "laurent.py").write_text("Y = 2\n")
    one, two = bench_pairs.git_rev(tmp_path / "one"), bench_pairs.git_rev(tmp_path / "two")
    assert one.startswith("sha256:") and len(one) == len("sha256:") + 64
    assert one == two
    (tmp_path / "two" / "src" / "forminv" / "laurent.py").write_text("Y = 3\n")
    assert bench_pairs.git_rev(tmp_path / "two") != one


def test_edited_checkout_gets_a_source_digest(tmp_path):
    src = tmp_path / "src" / "forminv"
    src.mkdir(parents=True)
    (src / "series.py").write_text("X = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.git_rev(tmp_path) == head
    (src / "series.py").write_text("X = 2\n")
    assert bench_pairs.git_rev(tmp_path) == bench_pairs.source_digest(tmp_path) != head


def test_environment_records_each_sides_source_lines(tmp_path):
    sides = {}
    for name, lines in (("parent", 3), ("change", 2)):
        src = tmp_path / name / "src" / "forminv"
        src.mkdir(parents=True)
        (src / "series.py").write_text("X = 1\n" * lines)
        (src / "packed.py").write_text("Y = 2\n")
        (tmp_path / name / "src" / "notes.txt").write_text("not counted\n")
        sides[name] = tmp_path / name
    env = bench_pairs.environment(sides, "fractions")
    assert env["source_lines"] == {"parent": 4, "change": 3}
    assert env["rational_backend"] == "fractions"
    assert env["change_rev"] == bench_pairs.source_digest(sides["change"])


def test_environment_records_each_sides_series_tokens(tmp_path):
    """Counted as the hygiene test counts them: no comment or blank line,
    a docstring as one token."""
    sides = {}
    bodies = {"parent": "X = 1  # one\n\nY = (2,)\n", "change": '"""Doc\nstring."""\n'}
    for name, body in bodies.items():
        src = tmp_path / name / "src" / "forminv"
        src.mkdir(parents=True)
        (src / "series.py").write_text(body)
        sides[name] = tmp_path / name
    # X = 1 NEWLINE Y = ( 2 , ) NEWLINE ENDMARKER; STRING NEWLINE ENDMARKER
    tokens = bench_pairs.environment(sides, "fractions")["series_tokens"]
    assert tokens == {"parent": 12, "change": 3}
    assert bench_pairs.series_tokens(ROOT) == code_tokens(ROOT / "src" / "forminv" / "series.py")


def test_environment_records_each_sides_compile_time(tmp_path):
    sides = {}
    for name, lines in (("parent", 3000), ("change", 3)):
        src = tmp_path / name / "src" / "forminv"
        src.mkdir(parents=True)
        (src / "series.py").write_text("".join(f"def f{i}(x):\n    return x + {i}\n" for i in range(lines)))
        sides[name] = tmp_path / name
    compile_s = bench_pairs.environment(sides, "fractions")["compile_s"]
    assert set(compile_s) == {"parent", "change"}
    assert 0 < compile_s["change"] < compile_s["parent"]
    (sides["change"] / "src" / "forminv" / "bad.py").write_text("def (:\n")
    with pytest.raises(SyntaxError):
        bench_pairs.compile_seconds(sides["change"])


def test_harness_digest_covers_the_benchmark_and_not_the_library(tmp_path):
    sides = {}
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "perfbench" / "tests").mkdir(parents=True)
        (root / "src" / "forminv").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text('{"workloads": []}\n')
        (root / "perfbench" / "run.py").write_text("RUN = 1\n")
        (root / "perfbench" / "tests" / "test_run.py").write_text("T = 1\n")
        (root / "src" / "forminv" / "series.py").write_text("X = 1\n")
        sides[name] = root
    digests = bench_pairs.environment(sides, "fractions")["harness_digest"]
    assert digests["parent"] == digests["change"]
    assert digests["change"].startswith("sha256:") and len(digests["change"]) == len("sha256:") + 64
    change = sides["change"]
    (change / "src" / "forminv" / "series.py").write_text("X = 2\n")
    assert bench_pairs.harness_digest(change) == digests["parent"]
    (change / "perfbench" / "tests" / "test_run.py").write_text("T = 2\n")
    assert bench_pairs.harness_digest(change) != digests["parent"]
