import json

import pytest

from wreathdet import config
from wreathdet.cli import EXIT_CAP, EXIT_FAIL, EXIT_OK, EXIT_USAGE, load_matrix, main
from wreathdet.linalg import Matrix


def write_json_matrix(path, rows):
    doc = {
        "rows": len(rows),
        "cols": len(rows[0]),
        "entries": [[str(e) for e in row] for row in rows],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_matrix_json_and_csv(tmp_path):
    from fractions import Fraction

    p = write_json_matrix(tmp_path / "m.json", [[1, "2/3"], [4, 5]])
    m = load_matrix(p)
    assert m == Matrix([[1, Fraction(2, 3)], [4, 5]])
    c = tmp_path / "m.csv"
    c.write_text("1,2/3\n4,5\n")
    assert load_matrix(str(c)) == m


def test_adet_symbolic_ones(tmp_path, capsys):
    p = write_json_matrix(tmp_path / "ones.json", [[1, 1, 1]] * 3)
    code, out, _ = run(capsys, "adet", p, "--alpha", "symbolic")
    assert code == EXIT_OK
    assert "adet = 2*a^2 + 3*a + 1" in out


def test_adet_rational(tmp_path, capsys):
    p = write_json_matrix(tmp_path / "m.json", [[1, 2], [3, 4]])
    code, out, _ = run(capsys, "adet", p, "--alpha", "-1")
    assert code == EXIT_OK and "adet = -2" in out


def test_adet_bare_negative_fraction(tmp_path, capsys):
    # argparse must accept '--alpha -1/2' without the equals form
    p = write_json_matrix(tmp_path / "ones.json", [[1, 1, 1]] * 3)
    code, out, _ = run(capsys, "adet", p, "--alpha", "-1/3")
    assert code == EXIT_OK and "adet = 2/9" in out


def test_adet_both_methods(tmp_path, capsys):
    p = write_json_matrix(
        tmp_path / "m.json",
        [["1/2", 3, 5, "7/3", 1] if i == 0 else [i + j for j in range(5)] for i in range(5)],
    )
    code, out, _ = run(
        capsys, "adet", p, "--alpha", "2/5", "--method", "both", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["values"]["sum"] == doc["values"]["laplace"]


def test_adet_default_method_is_dp(tmp_path, capsys):
    # out of reach of the 11! defining sum; the DP takes well under a second
    from fractions import Fraction
    from math import prod

    p = write_json_matrix(tmp_path / "ones11.json", [[1] * 11] * 11)
    code, out, _ = run(capsys, "adet", p, "--alpha", "1/2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    expect = prod(1 + Fraction(i, 2) for i in range(11))
    assert doc["values"] == {"dp": str(expect), "adet": str(expect)}
    assert doc["wall_time_s"] < 10


def test_wrdet_paper_example(tmp_path, capsys):
    rows = [
        [1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1],
    ]
    p = write_json_matrix(tmp_path / "iu2.json", rows)
    code, out, _ = run(capsys, "wrdet", p, "-k", "2", "--method", "all")
    assert code == EXIT_OK
    assert "wrdet = -1/16" in out


def test_wrdet_row_plex_identity(tmp_path, capsys):
    rows = [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]
    p = write_json_matrix(tmp_path / "i3plex.json", rows)
    code, out, _ = run(capsys, "wrdet", p, "-k", "2")
    assert code == EXIT_OK and "wrdet = 1/8" in out


def test_wrdet_shape_usage_error(tmp_path, capsys):
    p = write_json_matrix(tmp_path / "m.json", [[1, 2], [3, 4]])
    code, _, err = run(capsys, "wrdet", p, "-k", "2")
    assert code == EXIT_USAGE and "kn x n" in err


def test_cap_exit_code(tmp_path, capsys):
    before = dict(vars(config))
    rows = [[1] * 4 for _ in range(8)]
    p = write_json_matrix(tmp_path / "m.json", rows)
    code, _, err = run(capsys, "wrdet", p, "-k", "2", "--cap-factorial", "6")
    assert code == EXIT_CAP and "cap exceeded" in err
    # --cap-factorial bounds the degree of every adet route, passed down as cap=
    p = write_json_matrix(tmp_path / "m7.json", [[i + j for j in range(7)] for i in range(7)])
    for method in ("dp", "sum", "laplace", "both"):
        code, out, err = run(capsys, "adet", p, "--method", method, "--cap-factorial", "6")
        assert code == EXIT_CAP and "adet degree has size 7" in err and not out
    code, _, _ = run(capsys, "adet", p, "--method", "laplace", "--cap-factorial", "7")
    assert code == EXIT_OK
    assert dict(vars(config)) == before


def test_wrdet_cap_factorial_only_with_the_direct_route(tmp_path, capsys):
    p = write_json_matrix(tmp_path / "m.json", [[i + j for j in range(3)] for i in range(6)])
    for method in ("tableaux", "symmetric", "monomial"):
        code, out, err = run(capsys, "wrdet", p, "-k", "2", "--method", method,
                             "--cap-factorial", "1")
        assert code == EXIT_USAGE and not out
        assert "--cap-factorial" in err and f"the {method} route" in err
        code, _, _ = run(capsys, "wrdet", p, "-k", "2", "--method", method)
        assert code == EXIT_OK
    # direct and all pass the flag on to wrdet_direct, whose kdet has degree 6
    for method in ("direct", "all"):
        code, _, err = run(capsys, "wrdet", p, "-k", "2", "--method", method,
                           "--cap-factorial", "5")
        assert code == EXIT_CAP and "cap exceeded" in err
        code, out, _ = run(capsys, "wrdet", p, "-k", "2", "--method", method,
                           "--cap-factorial", "6", "--format", "json")
        assert code == EXIT_OK and json.loads(out)["passed"] is True


def test_cap_factorial_only_on_adet_and_wrdet(capsys):
    for argv in (
        ("verify", "alphadet", "--cap-factorial", "6"),
        ("xi-scan", "--max-kn", "4", "--cap-factorial", "6"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --cap-factorial 6" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "adet", str(bad))
    assert code == EXIT_USAGE
    missing_code, _, _ = run(capsys, "adet", str(tmp_path / "nope.json"))
    assert missing_code == EXIT_USAGE
    for name, text in (
        ("scalar_entries.json", '{"rows": 1, "cols": 1, "entries": 5}'),
        ("scalar_row.json", '{"rows": 1, "cols": 1, "entries": [5]}'),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run(capsys, "adet", str(path))
        assert code == EXIT_USAGE and "entries do not match" in err


def test_verify_suite_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "alphadet", "--seed", "1", "--format", "json",
        "--output", str(out_path),
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["passed"] is True
    assert doc["seed"] == 1
    assert all(c["passed"] for c in doc["checks"])


def test_verify_report_deterministic(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "symfun", "--seed", "7", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        doc.pop("wall_time_s")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_xi_scan_small(tmp_path, capsys):
    code, out, _ = run(capsys, "xi-scan", "--max-kn", "6", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    pairs = {(p["n"], p["k"]): p for p in doc["pairs"]}
    assert pairs[(2, 2)]["det"] == "3/4"
    assert pairs[(3, 2)]["det"] == "81/512"
    assert all(p["positive_definite"] for p in doc["pairs"])


def test_xi_scan_text_lines(capsys):
    code, out, _ = run(capsys, "xi-scan", "--max-kn", "4")
    assert code == EXIT_OK
    assert "(n=2, k=2) order=2 det=3/4 positive_definite=True" in out


def test_xi_scan_non_positive_definite_is_an_internal_bug(capsys, monkeypatch):
    import wreathdet.cli as cli_mod

    monkeypatch.setattr(
        cli_mod,
        "xi_scan",
        lambda max_kn: [{"n": 2, "k": 2, "order": 2, "det": "-1",
                         "leading_minors": ["1", "-1"], "positive_definite": False}],
    )
    code, out, err = run(capsys, "xi-scan", "--max-kn", "4", "--format", "json")
    assert code == EXIT_FAIL
    assert json.loads(out)["passed"] is False
    assert "internal bug" in err and "(n=2, k=2)" in err and "CONJECTURE" not in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force one failing check to exercise the exit-1 path and the serialized
    # first counterexample
    import wreathdet.cli as cli_mod
    from wreathdet.verify import Check

    monkeypatch.setattr(
        cli_mod,
        "run_suite",
        lambda suite, seed: [Check("good", True), Check("broken", False, "g=(2,1)")],
    )
    code, out, err = run(capsys, "verify", "alphadet", "--format", "json")
    assert code == EXIT_FAIL
    assert "first failure: broken g=(2,1)" in err
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["checks"][1] == {"name": "broken", "passed": False, "detail": "g=(2,1)"}
