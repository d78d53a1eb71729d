"""Map-document serialization and the command-line interface."""

import json

import pytest

from forminv import MapFormatError, parse_map, serialize_map
from forminv.cli import run_command
from forminv.inversion import METHODS, invert_fixed_point
from forminv.series import MSeries, PolyMap

CATALAN_DOC = '{"n":1,"D":8,"components":[[{"exp":[1],"c":"1"},{"exp":[2],"c":"-1"}]]}'


@pytest.fixture
def catalan_path(tmp_path):
    p = tmp_path / "catalan.json"
    p.write_text(CATALAN_DOC)
    return str(p)


@pytest.fixture
def shear_path(tmp_path):
    doc = (
        '{"n":2,"D":8,"components":[['
        '{"exp":[1,0],"c":"1"},{"exp":[0,2],"c":"-1"}],'
        '[{"exp":[0,1],"c":"1"}]]}'
    )
    p = tmp_path / "shear.json"
    p.write_text(doc)
    return str(p)


class TestParse:
    def test_basic(self):
        doc = parse_map(CATALAN_DOC)
        assert doc.n == 1 and doc.degree == 8
        f = doc.to_mapf()
        assert f.h.components[0].terms == {(2,): 1}

    def test_rational_coefficient(self):
        doc = parse_map(
            '{"n":1,"D":4,"components":[[{"exp":[1],"c":"1"},{"exp":[2],"c":"2/3"}]]}'
        )
        m = doc.map
        from forminv.rat import Rat

        assert m.components[0].terms[(2,)] == Rat(2, 3)

    def test_constant_term_rejected(self):
        doc = parse_map(
            '{"n":1,"D":4,"components":[[{"exp":[0],"c":"1"},{"exp":[1],"c":"1"}]]}'
        )
        with pytest.raises(MapFormatError):
            doc.to_mapf()

    def test_syntax_error_has_position(self):
        with pytest.raises(MapFormatError) as err:
            parse_map('{"n":1,"D":4,')
        assert "line" in str(err.value)

    def test_wrong_component_count(self):
        with pytest.raises(MapFormatError):
            parse_map('{"n":2,"D":4,"components":[[{"exp":[1,0],"c":"1"}]]}')

    def test_degree_above_bound(self):
        with pytest.raises(MapFormatError):
            parse_map('{"n":1,"D":2,"components":[[{"exp":[3],"c":"1"}]]}')

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"n":1,"D":4,"components":[[{"exp":[2.7],"c":"1"}]]}', "exp"),
            ('{"n":1,"D":4,"components":[[{"exp":[true],"c":"1"}]]}', "exp"),
            ('{"n":1,"D":4,"components":[[{"exp":"2","c":"1"}]]}', "exp"),
            ('{"n":true,"D":4,"components":[[{"exp":[2],"c":"1"}]]}', "n"),
            ('{"n":"1","D":4,"components":[[{"exp":[2],"c":"1"}]]}', "n"),
            ('{"n":1,"D":3.5,"components":[[{"exp":[2],"c":"1"}]]}', "D"),
            ('{"n":1,"D":4,"vars":[7],"components":[[{"exp":[2],"c":"1"}]]}', "vars"),
            ('{"n":1,"D":4,"components":[[{"exp":[2],"c":true}]]}', "c"),
            ('{"n":1,"D":4,"components":[[{"exp":[2],"c":0.5}]]}', "c"),
        ],
    )
    def test_no_silent_coercion(self, doc, field):
        with pytest.raises(MapFormatError, match=rf"\b{field} must be"):
            parse_map(doc)

    @pytest.mark.parametrize("c", ["1e3", "1_000", "0.5", "1e400"])
    def test_coefficient_is_p_or_p_over_q(self, c):
        doc = '{"n":1,"D":4,"components":[[{"exp":[2],"c":"%s"}]]}' % c
        with pytest.raises(MapFormatError, match=f"invalid rational literal '{c}'"):
            parse_map(doc)

    def test_integer_coefficient_accepted(self):
        doc = parse_map('{"n":1,"D":4,"components":[[{"exp":[2],"c":-3}]]}')
        assert doc.map.components[0].terms == {(2,): -3}

    def test_duplicate_exponents_summed(self):
        doc = parse_map(
            '{"n":1,"D":4,"components":[[{"exp":[2],"c":"1"},{"exp":[2],"c":"-1"}]]}'
        )
        assert doc.map.components[0].is_zero()


class TestRoundTrip:
    def test_serialize_parse_fixed_point(self):
        text = serialize_map(parse_map(CATALAN_DOC))
        assert serialize_map(parse_map(text)) == text

    def test_roundtrip_preserves_values(self):
        text = serialize_map(parse_map(CATALAN_DOC))
        doc = parse_map(text)
        assert doc.map.components[0].terms == {(1,): 1, (2,): -1}

    def test_metadata_preserved(self):
        doc = parse_map(
            '{"n":1,"D":4,"components":[[{"exp":[1],"c":"1"},{"exp":[3],"c":"-1"}]],'
            '"metadata":{"id":"cubic-demo","homogeneous_degree":3}}'
        )
        assert doc.metadata["id"] == "cubic-demo"
        text = serialize_map(doc)
        again = parse_map(text)
        assert again.metadata == doc.metadata
        assert serialize_map(again) == text

    def test_term_order_is_graded_lex(self):
        doc = parse_map(
            '{"n":2,"D":4,"components":[['
            '{"exp":[0,2],"c":"1"},{"exp":[1,0],"c":"1"},{"exp":[1,1],"c":"1"}],[]]}'
        )
        out = json.loads(serialize_map(doc))
        exps = [term["exp"] for term in out["components"][0]]
        assert exps == [[1, 0], [0, 2], [1, 1]]


class TestCli:
    def test_invert_all_prints_catalan(self, capsys, catalan_path):
        code = run_command(["invert", "--method", "all", "--deg", "8",
                            "--input", catalan_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "132*z^7 + 429*z^8" in out
        assert "all methods agree" in out
        assert "jacobi" in out and "lagrange" in out

    def test_flow_minus_one_equals_bcw(self, capsys, catalan_path):
        assert run_command(
            ["flow", "--t", "-1", "--input", catalan_path, "--format", "json"]
        ) == 0
        flow_out = capsys.readouterr().out
        assert run_command(
            ["invert", "--method", "bcw", "--input", catalan_path,
             "--format", "json"]
        ) == 0
        bcw_out = capsys.readouterr().out
        assert flow_out == bcw_out

    def test_flow_symbolic(self, capsys, catalan_path):
        assert run_command(
            ["flow", "--t", "t", "--deg", "3", "--input", catalan_path]
        ) == 0
        out = capsys.readouterr().out
        assert "t^2" in out

    def test_power(self, capsys, catalan_path):
        assert run_command(
            ["power", "--m", "2", "--deg", "5", "--input", catalan_path]
        ) == 0
        assert "z - 2*z^2 + 2*z^3 - z^4" in capsys.readouterr().out

    def test_trees_listing(self, capsys):
        assert run_command(["trees", "--max-size", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 18  # 17 trees + total line
        assert out[-1] == "total: 17 trees with <= 5 vertices"
        assert all("omega=" in line for line in out[:-1])

    def test_verify_suites_pass(self, capsys, catalan_path, shear_path):
        for suite, path in [
            ("lemma31", catalan_path),
            ("newp", shear_path),
            ("prop310", catalan_path),
            ("gpde", catalan_path),
            ("euler", catalan_path),
            ("pde", shear_path),
        ]:
            code = run_command(
                ["verify", "--suite", suite, "--deg", "5", "--input", path]
            )
            out = capsys.readouterr().out
            assert code == 0, f"{suite} failed: {out}"

    def test_verify_json_format(self, capsys, catalan_path):
        assert run_command(
            ["verify", "--suite", "pde", "--deg", "4", "--input", catalan_path,
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"

    def test_probe(self, capsys, tmp_path):
        doc = (
            '{"n":2,"D":8,"components":[['
            '{"exp":[1,0],"c":"1"},{"exp":[0,3],"c":"-1"}],'
            '[{"exp":[0,1],"c":"1"}]]}'
        )
        p = tmp_path / "cubic.json"
        p.write_text(doc)
        assert run_command(["probe", "--layers", "5", "--input", str(p)]) == 0
        assert "last nonzero layer: 1" in capsys.readouterr().out

    def test_bench_csv(self, capsys, catalan_path, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code = run_command(
            ["bench", "--deg-range", "3..4", "--methods", "fixed,recurrent",
             "--input", catalan_path, "--csv", str(csv_path), "--runs", "1"]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "input_id,method,degree,millis,terms,agree_hash"
        assert len(lines) == 5
        # same input and degree hash-agree across methods
        rows = [line.split(",") for line in lines[1:]]
        by_degree = {}
        for row in rows:
            by_degree.setdefault(row[2], set()).add(row[5])
        assert all(len(hashes) == 1 for hashes in by_degree.values())

    def test_exit_code_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_command(["invert", "--input", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_code_noncanonical(self, capsys, tmp_path):
        doc = '{"n":1,"D":4,"components":[[{"exp":[1],"c":"2"}]]}'
        p = tmp_path / "noncanon.json"
        p.write_text(doc)
        assert run_command(["invert", "--input", str(p)]) == 2

    def test_lagrange_inapplicable_is_input_error(self, capsys, shear_path):
        code = run_command(
            ["invert", "--method", "lagrange", "--input", shear_path]
        )
        assert code == 2
        assert "jacobi" in capsys.readouterr().err

    def test_homog_inapplicable_is_input_error(self, capsys, tmp_path):
        doc = (
            '{"n":1,"D":5,"components":[[{"exp":[1],"c":"1"},'
            '{"exp":[2],"c":"-1"},{"exp":[3],"c":"1"}]]}'
        )
        p = tmp_path / "mixed.json"
        p.write_text(doc)
        assert run_command(["invert", "--method", "homog", "--input", str(p)]) == 2

    def test_flow_rational_evaluation(self, capsys, catalan_path):
        assert run_command(
            ["flow", "--t", "1/2", "--deg", "4", "--input", catalan_path]
        ) == 0
        out = capsys.readouterr().out
        assert "1/2*z^2" in out

    def test_exit_code_disagreement(self, capsys, catalan_path, monkeypatch):
        def corrupt(f, degree):
            g = invert_fixed_point(f, degree)
            bad = g.components[0] + MSeries.monomial(1, (2,), 1, degree)
            return PolyMap([bad])

        monkeypatch.setitem(METHODS, "bcw", corrupt)
        code = run_command(
            ["invert", "--method", "all", "--deg", "5", "--input", catalan_path]
        )
        assert code == 1
        assert "disagree" in capsys.readouterr().err

    def test_stdin_input_subprocess(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "forminv.cli", "invert",
             "--method", "recurrent", "--deg", "5"],
            input=CATALAN_DOC,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "14*z^5" in proc.stdout

    def test_repeated_runs_identical(self, capsys, catalan_path):
        run_command(["invert", "--method", "all", "--deg", "6",
                     "--input", catalan_path, "--format", "json"])
        first = capsys.readouterr().out
        run_command(["invert", "--method", "all", "--deg", "6",
                     "--input", catalan_path, "--format", "json"])
        assert capsys.readouterr().out == first
