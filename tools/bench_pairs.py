"""Paired benchmark runs of two checkouts, written to ``BENCH_<tag>.json``.

Runs the unchanged ``perfbench/run.py`` of a parent checkout and of a
change checkout in alternating pairs, one pair per seed and workload (the
side that runs first alternates too), and writes ``BENCH_<tag>.json`` at
the root of this repository.  The file holds, per workload: every pair's
end-to-end metrics (as ``BENCHMARK.json`` lists them), ``output_digest``
and ``failed``; per side the median and quartiles of each metric; in how
many pairs the change did better; ``within_bound``, whether the change's
median is worse than the parent's by at most the metric's bound, taken
as a relative change; and ``unresolved``, whether the parent's quartile
spread, relative to its median, is wider than the bound while some change
run does not beat every parent run, so that the bound cannot tell; and
``gain_shown``, whether the change did better in at least 9 of every 10
pairs (a tie counts for neither side) and its median gain exceeds the
parent's quartile spread, the rule a claimed gain must meet.  An
environment block records the Python version, the rational backend, the
CPU count, both git revisions (a source digest for a side that is not
the top of its own git work tree, or whose src/forminv has uncommitted
changes), each side's ``source_lines``, the total line count of its
``src/forminv/*.py``, and each side's ``compile_s``, the median time of
a few ``compile()`` passes over those files: the work that a fresh
import without cached bytecode adds to ``setup_s``.

    python3 tools/bench_pairs.py --parent ../parent --change . --tag packed_kernel \\
        --seconds 30 --seeds deep=301-310 wide=311-316 identities=311-316

A ``--seeds`` item is ``[WORKLOAD=]FIRST[-LAST]``; an item without a
workload applies to all three.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deep", "wide", "identities")


def parse_seeds(items):
    seeds = {w: [] for w in WORKLOADS}
    for item in items:
        target, _, span = item.rpartition("=")
        first, _, last = span.partition("-")
        values = range(int(first), int(last or first) + 1)
        for w in [target] if target else WORKLOADS:
            if w not in seeds:
                raise SystemExit(f"--seeds {item}: unknown workload {w!r}")
            seeds[w].extend(values)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; its metrics, failures, digest and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text())
    return {
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "failed": f"{last['failed']}/{last['attempted']}",
        "output_digest": record["output_digest"],
        "environment": record["environment"],
    }


def source_digest(checkout: Path) -> str:
    """sha256 over the names and bytes of the checkout's src/forminv/*.py."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "forminv").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return "sha256:" + h.hexdigest()


def git_rev(checkout: Path) -> str:
    """HEAD when `checkout` is the top of its own git work tree (a copy
    made by ``git archive`` is not) and ``git status`` finds no change in
    its src/forminv, else the digest of its sources."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    top, _, rev = proc.stdout.strip().partition("\n")
    if proc.returncode == 0 and Path(top).resolve() == checkout.resolve():
        status = subprocess.run(["git", "status", "--porcelain", "--", "src/forminv"],
                                cwd=checkout, capture_output=True, text=True)
        if status.returncode == 0 and not status.stdout.strip():
            return rev
    return source_digest(checkout)


def source_lines(checkout: Path) -> int:
    """The total line count of the checkout's src/forminv/*.py."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "forminv").glob("*.py"))


def compile_seconds(checkout: Path, passes: int = 5) -> float:
    """The median time of `passes` passes of ``compile()`` over the
    checkout's src/forminv/*.py."""
    paths = sorted((checkout / "src" / "forminv").glob("*.py"))
    sources = [(path.read_text(), str(path)) for path in paths]
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        for text, name in sources:
            compile(text, name, "exec")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(sides: dict, rational_backend: str) -> dict:
    """The environment block: the Python version, the rational backend,
    the CPU count, and each side's revision, source line count and
    compile time."""
    return {
        "python": platform.python_version(),
        "rational_backend": rational_backend,
        "nproc": len(os.sched_getaffinity(0)),
        "parent_rev": git_rev(sides["parent"]),
        "change_rev": git_rev(sides["change"]),
        "source_lines": {side: source_lines(path) for side, path in sides.items()},
        "compile_s": {side: compile_seconds(path) for side, path in sides.items()},
    }


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def workload_summary(pairs, metrics):
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        side = {s: [p[s]["metrics"][name] for p in pairs] for s in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
        parent, change = summarize(side["parent"]), summarize(side["change"])
        gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
        iqr = parent["q3"] - parent["q1"]
        all_better = all((c < p) if lower else (c > p)
                         for p in side["parent"] for c in side["change"])
        out[name] = {
            "better": m["better"],
            "bound": m["bound"],
            "parent": parent,
            "change": change,
            "change_better_in": f"{wins}/{len(pairs)}",
            "relative_change": change["median"] / parent["median"] - 1,
            "median_gain_exceeds_parent_iqr": gain > iqr,
            "gain_shown": 10 * wins >= 9 * len(pairs) and gain > iqr,
            "within_bound": -gain / parent["median"] <= m["bound"],
            "unresolved": iqr / parent["median"] > m["bound"] and not all_better,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--seeds", nargs="+", action="extend", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = parse_seeds(args.seeds)
    result = {"tag": args.tag, "seconds": args.seconds, "workloads": {}}
    env = {}
    for workload, workload_seeds in seeds.items():
        pairs = []
        for i, seed in enumerate(workload_seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
                env[side] = pair[side].pop("environment")
                print(workload, seed, side, pair[side]["metrics"].get("job_ref.p50"),
                      pair[side]["failed"], flush=True)
            pairs.append(pair)
        if pairs:
            result["workloads"][workload] = {
                "summary": workload_summary(pairs, metrics),
                "pairs": pairs,
            }
    result["environment"] = environment(sides, env["change"]["rational_backend"])
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
