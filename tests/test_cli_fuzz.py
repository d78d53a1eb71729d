"""Fuzzing the CLI: random documents through every subcommand.

Each run reads a random map document (canonical or not, with small
coefficients or ones near Python's int-string digit limit) on stdin and
runs one random command line.  It must end with exit code 0, 1 or 2 within
a time bound, and print no traceback.
"""

import contextlib
import io
import json
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from forminv.cli import run_command

LIMIT = sys.get_int_max_str_digits()
SECONDS = 5.0

SMALL = st.sampled_from(["1", "-1", "2", "-2", "1/2", "-3/4", "0"])
HUGE = st.sampled_from([LIMIT - 10, LIMIT, LIMIT + 1]).map(lambda k: "7" * k)
COEFFS = st.integers(0, 9).flatmap(
    lambda r: SMALL if r < 7 else HUGE if r < 9 else HUGE.map(lambda s: "1/" + s)
)
FLAWS = st.sampled_from(
    [None] * 4 + ["no linear term", "low-degree term", "bad exponent", "bad coefficient"]
)


@st.composite
def documents(draw):
    """A map document of n <= 2 variables: z_i plus up to two terms of
    degree 2 or 3 per component, with coefficients small or near the digit
    limit; half of them carry one flaw."""
    n = draw(st.integers(1, 2))
    components = []
    for i in range(n):
        terms = [{"exp": [int(j == i) for j in range(n)], "c": "1"}]
        for _ in range(draw(st.integers(0, 2))):
            idx = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3))
            terms.append({"exp": [idx.count(k) for k in range(n)], "c": draw(COEFFS)})
        components.append(terms)
    flaw, first = draw(FLAWS), components[0]
    if flaw == "no linear term":
        del first[0]
    elif flaw == "low-degree term":
        first.append({"exp": [draw(st.integers(0, 1))] + [0] * (n - 1), "c": "3"})
    elif flaw == "bad exponent":
        first[0]["exp"] = draw(st.sampled_from([[1] * (n + 1), [-1] * n, ["1"] * n, 1]))
    elif flaw == "bad coefficient":
        first[0]["c"] = draw(st.sampled_from(["", "x", "1/0", "1.5", "--1", 1.0]))
    doc = {"n": n, "D": draw(st.sampled_from([1, 2, 3, 4, 5, 5])), "components": components}
    return json.dumps(doc)


DEG = st.one_of(st.just([]), st.sampled_from([-1, 0, 1, 3, 5]).map(lambda d: ["--deg", str(d)]))
FORMAT = st.sampled_from([[], ["--format", "text"], ["--format", "json"]])
RATIONALS = st.sampled_from(["t", "2", "-1", "0", "1/2", "-1/2", "3/-4", "1/0", "x", "1e5"])


def with_map_options(words):
    return st.tuples(st.just(words), DEG, FORMAT).map(lambda parts: sum(parts, []))


COMMANDS = st.one_of(
    st.sampled_from(
        ["fixed", "recurrent", "homog", "ag", "bcw", "jacobi", "lagrange", "all"]
    ).flatmap(lambda m: with_map_options(["invert", "--method", m])),
    st.sampled_from(["lemma31", "newp", "gpde", "euler", "pde"]).flatmap(
        lambda s: with_map_options(["verify", "--suite", s])
    ),
    st.tuples(st.integers(-1, 3), st.integers(-1, 3)).flatmap(
        lambda so: with_map_options(
            ["verify", "--suite", "prop310", "--s-order", str(so[0]), "--t-order", str(so[1])]
        )
    ),
    RATIONALS.flatmap(lambda t: with_map_options(["flow", "--t", t])),
    st.integers(-3, 3).flatmap(lambda m: with_map_options(["power", "--m", str(m)])),
    st.integers(-1, 6).map(lambda k: ["trees", "--max-size", str(k)]),
    st.integers(-1, 4).map(lambda k: ["probe", "--layers", str(k)]),
    st.tuples(
        st.sampled_from(["2..3", "2,3", "3", "0..2", "x", "3..2"]),
        st.sampled_from(["recurrent,bcw", "fixed", "ag,ag", "nope", ","]),
    ).map(lambda dm: ["bench", "--deg-range", dm[0], "--methods", dm[1], "--runs", "1"]),
)


def run(argv, stdin_text):
    """Exit code, stderr and seconds of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_command(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        sys.stdin = saved
    return code, err.getvalue(), time.perf_counter() - start


@settings(max_examples=80, deadline=None)
@given(COMMANDS, documents())
def test_every_command_exits_cleanly(argv, doc):
    code, err, seconds = run(argv, doc)
    assert code in (0, 1, 2), (argv, code, err[-500:])
    assert "Traceback" not in err, (argv, err[-500:])
    assert seconds < SECONDS, (argv, seconds)
