"""Input boundaries of the CLI: exit codes, error reporting and files."""

import builtins

import pytest

from forminv import flow
from forminv.cli import run_command
from forminv.series import MapF

CATALAN_DOC = '{"n":1,"D":8,"components":[[{"exp":[1],"c":"1"},{"exp":[2],"c":"-1"}]]}'


@pytest.fixture
def catalan_path(tmp_path):
    p = tmp_path / "catalan.json"
    p.write_text(CATALAN_DOC)
    return str(p)


@pytest.mark.parametrize(
    "argv",
    [
        ["invert"],
        ["verify", "--suite", "pde"],
        ["flow", "--t", "1"],
        ["power", "--m", "2"],
        ["probe", "--layers", "3"],
        ["bench", "--deg-range", "3"],
        ["invert", "--deg", "0"],  # the document error comes first
    ],
    ids=["invert", "verify", "flow", "power", "probe", "bench", "invert-deg0"],
)
def test_noncanonical_document_is_an_input_error(capsys, tmp_path, argv):
    p = tmp_path / "noncanon.json"
    p.write_text('{"n":1,"D":4,"components":[[{"exp":[1],"c":"2"}]]}')
    assert run_command(argv + ["--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert "error: document is not a canonical map:" in captured.err
    assert captured.out == ""


def test_programming_error_is_not_reported_as_bad_input(monkeypatch, catalan_path):
    def broken(cls, f):
        raise TypeError("broken from_map")

    monkeypatch.setattr(MapF, "from_map", classmethod(broken))
    with pytest.raises(TypeError, match="broken from_map"):
        run_command(["invert", "--input", catalan_path])


def test_input_file_is_closed(monkeypatch, capsys, catalan_path):
    opened = []

    def tracking_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(fh)
        return fh

    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", tracking_open)
    assert run_command(["invert", "--method", "recurrent", "--input", catalan_path]) == 0
    assert opened and all(fh.closed for fh in opened)


@pytest.mark.parametrize("size", [0, -3])
def test_trees_max_size_below_one(capsys, size):
    assert run_command(["trees", "--max-size", str(size)]) == 2
    assert f"error: --max-size must be >= 1, got {size}" in capsys.readouterr().err


@pytest.mark.parametrize("layers", [0, -2])
def test_probe_layers_below_one(capsys, catalan_path, layers):
    assert run_command(["probe", "--layers", str(layers), "--input", catalan_path]) == 2
    captured = capsys.readouterr()
    assert f"error: --layers must be >= 1, got {layers}" in captured.err
    assert captured.out == ""


def test_symbolic_flow_has_no_json_output(monkeypatch, capsys, catalan_path):
    def not_reached(f, degree):
        raise AssertionError("formal_flow ran")

    monkeypatch.setattr(flow, "formal_flow", not_reached)
    argv = ["flow", "--t", "t", "--format", "json", "--input", catalan_path]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert "--format text" in captured.err
    assert captured.out == ""


def test_probe_has_no_format_option(capsys, catalan_path):
    with pytest.raises(SystemExit) as exc:
        run_command(["probe", "--layers", "6", "--format", "json", "--input", catalan_path])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("option", ["--s-order", "--t-order"])
def test_prop310_negative_order(monkeypatch, capsys, catalan_path, option):
    def not_reached(*args):
        raise AssertionError("check_prop310 ran")

    monkeypatch.setattr(flow, "check_prop310", not_reached)
    argv = ["verify", "--suite", "prop310", option, "-5", "--input", catalan_path]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {option} must be >= 0, got -5" in captured.err
    assert captured.out == ""


def test_prop310_order_zero_is_accepted(capsys, catalan_path):
    argv = ["verify", "--suite", "prop310", "--s-order", "0", "--t-order", "0"]
    assert run_command(argv + ["--input", catalan_path]) == 0
    assert "stated orders t<=0, s<=0): pass" in capsys.readouterr().out


def test_bench_runs_below_one(capsys, catalan_path):
    code = run_command(["bench", "--deg-range", "3", "--input", catalan_path, "--runs", "0"])
    assert code == 2
    assert "error: --runs must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "--deg", "0"],
        ["invert", "--deg", "-2", "--method", "fixed"],
        ["invert", "--deg", "-2", "--method", "ag"],
        ["verify", "--suite", "pde", "--deg", "0"],
        ["flow", "--t", "1", "--deg", "-1"],
        ["power", "--m", "2", "--deg", "0"],
    ],
)
def test_deg_below_one(capsys, catalan_path, argv):
    deg = argv[argv.index("--deg") + 1]
    assert run_command(argv + ["--input", catalan_path]) == 2
    captured = capsys.readouterr()
    assert f"error: --deg must be >= 1, got {deg}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["0", "2,0", "abc", "3..x"])
def test_bench_bad_degree_range(capsys, catalan_path, spec):
    code = run_command(["bench", "--deg-range", spec, "--input", catalan_path, "--runs", "1"])
    assert code == 2
    assert f"error: bad degree range '{spec}'" in capsys.readouterr().err


def test_bench_repeated_degree(capsys, catalan_path):
    code = run_command(["bench", "--deg-range", "3,3", "--input", catalan_path, "--runs", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: bad degree range '3,3': a degree repeats" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["", " , "])
def test_bench_empty_method_list(capsys, catalan_path, spec):
    argv = ["bench", "--deg-range", "3", "--methods", spec, "--input", catalan_path]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert f"error: --methods {spec!r} names no method" in captured.err
    assert captured.out == ""


def test_bench_repeated_method(capsys, catalan_path):
    argv = ["bench", "--deg-range", "3", "--methods", "fixed,ag,fixed", "--input", catalan_path]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert "error: --methods names 'fixed' twice" in captured.err
    assert captured.out == ""


def test_bench_unknown_method(capsys, catalan_path):
    argv = ["bench", "--deg-range", "3", "--methods", "fixed,nope", "--input", catalan_path]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert "error: unknown method 'nope'" in captured.err
    assert captured.out == ""


def test_bench_repeated_input(capsys, tmp_path, catalan_path):
    # the same path twice, or two documents with the same metadata.id
    named = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        p.write_text(CATALAN_DOC[:-1] + ',"metadata":{"id":"catalan"}}')
        named.append(str(p))
    for paths, label in [([catalan_path] * 2, catalan_path), (named, "catalan")]:
        argv = ["bench", "--deg-range", "3", "--methods", "fixed,ag", "--runs", "1"]
        assert run_command(argv + [x for p in paths for x in ("--input", p)]) == 2
        captured = capsys.readouterr()
        assert f"error: --input {paths[1]!r} repeats input {label!r}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("t", ["abc", "1/0", "0.5"])
def test_flow_invalid_rational(capsys, catalan_path, t):
    assert run_command(["flow", "--t", t, "--input", catalan_path]) == 2
    assert f"error: invalid rational literal '{t}'" in capsys.readouterr().err


def test_flow_negative_fraction_as_a_separate_argument(capsys, catalan_path):
    outputs = []
    for argv in (["--t", "-1/2"], ["--t=-1/2"]):
        assert run_command(["flow", *argv, "--deg", "4", "--input", catalan_path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == "z -> z + 1/2*z^2 + 3/4*z^3 + 3/2*z^4\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [["invert"], ["flow", "--t", "2"], ["power", "--m", "2"]])
def test_output_past_the_digit_limit_is_an_input_error(capsys, tmp_path, argv, fmt):
    """F = z - c z^2 with a 3001-digit c: each output has a coefficient
    2c^2 of 6001 digits, more than Python converts to text."""
    p = tmp_path / "big.json"
    c = "7" * 3001
    p.write_text('{"n":1,"D":4,"components":[[{"exp":[1],"c":"1"},{"exp":[2],"c":"-%s"}]]}' % c)
    assert run_command([*argv, "--format", fmt, "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert "error: a coefficient has more digits than Python converts to text" in captured.err
    assert "(4300-digit limit)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"n":2,"vars":[["x"],["y"]],"D":3,"components":[[],[]]}', "vars must be"),
        ('{"n":1,"D":3,"components":[[]],"metadata":[1,2]}', "metadata must be"),
        ('{"n":1,"D":3,"components":[5]}', "component 1 must be a list"),
        ('{"n":1,"D":1e400,"components":[[]]}', "D must be an integer"),
        ('{"n":1,"D":3,"components":[[7]]}', "component 1, term 1: a term must be an object"),
        ('{"n":1,"D":3,"components":[[{"exp":[-1],"c":"1"}]]}', "component 1: negative exponent"),
        (
            '{"n":1,"D":3,"components":[[{"exp":[1,1],"c":"1"}]]}',
            "component 1: exponent has 2 entries, expected 1",
        ),
        (
            '{"n":1,"D":3,"components":[[{"exp":[4],"c":"1"}]]}',
            "component 1: term (4,) exceeds truncation bound 3",
        ),
        pytest.param(
            '{"n":1,"D":3,"components":[[{"exp":[%s],"c":"1"}]]}' % ",".join(["0"] * 10**6),
            "component 1: exponent has 1000000 entries, expected 1",
            id="exponent_of_a_million_entries",
        ),
        pytest.param(
            '{"n":2,"D":3,"components":[[{"exp":[%s,%s],"c":"1"}],[]]}' % ("9" * 4300, "9" * 4300),
            "component 1: term (99999999",
            id="degree_past_the_digit_limit",
        ),
    ],
)
def test_malformed_document_is_an_input_error(capsys, tmp_path, doc, message):
    """Exit 2 and one short error line, also for an exponent of a million
    entries and one whose degree has more digits than Python converts to
    text: the message names no more than a prefix of the exponent."""
    p = tmp_path / "bad.json"
    p.write_text(doc)
    assert run_command(["invert", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert len(captured.err) < 200
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_input_integer_past_the_digit_limit_is_an_input_error(capsys, tmp_path):
    """A JSON integer coefficient of 4400 digits: ``json.loads`` cannot
    convert it, and the document is refused before any work starts."""
    p = tmp_path / "big.json"
    c = "7" * 4400
    p.write_text('{"n":1,"D":4,"components":[[{"exp":[1],"c":1},{"exp":[2],"c":-%s}]]}' % c)
    assert run_command(["invert", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert "error: a JSON integer has more digits than Python converts" in captured.err
    assert "(4300-digit limit)" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_input_string_past_the_digit_limit_is_a_short_error(capsys, tmp_path):
    """A string coefficient of 5000 digits is refused with exit 2 and one
    short line that names the digit limit, not one that echoes every
    digit."""
    p = tmp_path / "big.json"
    c = "7" * 5000
    p.write_text('{"n":1,"D":4,"components":[[{"exp":[1],"c":"1"},{"exp":[2],"c":"-%s"}]]}' % c)
    assert run_command(["invert", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert "has more digits than Python converts (4300-digit limit)" in captured.err
    assert "(5001 characters)" in captured.err
    assert len(captured.err) < 300
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_document_nested_past_the_recursion_limit_is_an_input_error(capsys, tmp_path):
    """A coefficient of 100 000 nested arrays: ``json.loads`` runs out of
    recursion depth, and the document is refused with exit 2."""
    p = tmp_path / "deep.json"
    p.write_text('{"n":1,"D":4,"components":[[{"exp":[2],"c":%s}]]}' % ("[" * 100000))
    assert run_command(["invert", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert "error: JSON nested past Python's recursion limit" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
