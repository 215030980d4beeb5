"""Command-line interface behaviour and output stability."""

import json

import pytest

from richelot import cli, poly
from richelot.cli import run

from conftest import clear_genus2_caches, count_calls


def test_census_ok(capsys):
    assert run(["census", "-p", "11"]) == 0
    out = capsys.readouterr().out
    assert "total" in out and "5" in out


def test_census_json(capsys):
    assert run(["census", "-p", "7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["p"] == 7


def test_census_rejects_bad_prime(capsys):
    assert run(["census", "-p", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_graph_json_and_file(tmp_path, capsys):
    assert run(["graph", "-p", "11", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == 5
    out = tmp_path / "g.dot"
    assert run(["graph", "-p", "7", "--format", "dot",
                "-o", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_graph_unwritable_output_is_an_error(tmp_path, capsys):
    # an -o path that cannot be opened is bad input, as a bad prime is:
    # one error line on stderr, exit 2, and nothing on stdout
    bad = tmp_path / "missing" / "g.json"
    assert run(["graph", "-p", "7", "--format", "json",
                "-o", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(bad) in err
    assert err.count("\n") == 1 and not bad.exists()


def test_graph_opens_output_before_the_build(tmp_path, monkeypatch, capsys):
    # -o opens after the --max-prime check and before the build, as a
    # shell > would: an unwritable path fails at once, with no build, and
    # a refused prime creates no file
    calls = []

    def build_graph(*args):
        calls.append(args)
        raise OSError("the graph was built")
    monkeypatch.setattr(cli, "build_graph", build_graph)
    bad = tmp_path / "missing" / "g.json"
    assert run(["graph", "-p", "151", "--format", "json",
                "-o", str(bad)]) == 2
    assert calls == [] and str(bad) in capsys.readouterr().err
    out = tmp_path / "g.json"
    assert run(["graph", "-p", "11", "--max-prime", "7", "--format", "dot",
                "-o", str(out)]) == 2
    assert calls == [] and not out.exists()
    assert "exceeds the cap" in capsys.readouterr().err


def test_validate_exit_code(capsys):
    assert run(["validate", "-p", "13"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_atlas_case(capsys):
    assert run(["verify-atlas", "-p", "19", "--case", "II"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_atlas_skips_type_iv_at_7(capsys):
    # no Type-IV parameter at p = 7 is generic, so case IV is skipped
    # like II and Pi there, and every other case passes
    assert run(["verify-atlas", "-p", "7"]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] case IV at p=7: no generic Type-IV vertex at p = 7" \
        in out
    assert [line.split()[2] for line in out.splitlines()
            if line.startswith("[SKIP]")] == ["IV", "II", "Pi"]
    assert "FAIL" not in out
    assert out.count("[PASS]") == 10


def test_neighbourhood_sextic(capsys):
    # x^5 - 1 over GF(19^2): three orbits of five
    assert run(["neighbourhood", "-p", "19",
                "--sextic=-1,0,0,0,0,1"]) == 0
    out = capsys.readouterr().out
    assert "out-weight 15" in out
    assert out.count("weight  5") == 3


def test_neighbourhood_sextic_with_irrational_points(capsys, monkeypatch):
    # x^6 + x + 1 has two roots over GF(19^2) and two irreducible
    # quadratic factors: its one factoring raises the typed error, which
    # counts the kernels off the two roots
    clear_genus2_caches()
    calls = count_calls(monkeypatch, "factor_quadratic_pieces")
    assert run(["neighbourhood", "-p", "19",
                "--sextic=1,1,0,0,0,0,1"]) == 2
    assert "only 1 rational kernels" in capsys.readouterr().err
    assert len(calls) == 1


def test_neighbourhood_sextic_with_irrational_split_factors(capsys):
    # the blocks (x - a)(x - (1+i)/a), a = 2, 3, 5, form a delta = 0
    # kernel whose fixed points, and so elliptic factors, are conjugate
    assert run(["neighbourhood", "-p", "23",
                "--sextic=16+8i,17+7i,14+16i,1+17i,5+11i,2+12i,1"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: conjugate fixed points: a delta = 0 quotient splits")


@pytest.mark.parametrize("sextic", [
    "1,1,0,0,0,0,1", "16+8i,17+7i,14+16i,1+17i,5+11i,2+12i,1"])
def test_irrational_points_error_reproduces_itself(capsys, sextic):
    # the typed error's last line is a neighbourhood command on the
    # sextic it names, which exits 2 with the same message; the two CI
    # inputs, a curve with irrational points at p = 19 and a delta = 0
    # kernel with conjugate fixed points at p = 23
    p = "19" if sextic.startswith("1,") else "23"
    assert run(["neighbourhood", "-p", p, f"--sextic={sextic}"]) == 2
    err = capsys.readouterr().err
    command = err.splitlines()[-1]
    assert command == f"richelot neighbourhood -p {p} --sextic={sextic}"
    assert run(command.split()[1:]) == 2
    assert capsys.readouterr().err == err


def test_neighbourhood_product(capsys):
    assert run(["neighbourhood", "-p", "11", "--product", "0,1",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertex_type"] == "Pi0-1728"
    assert doc["out_weight"] == 15


def test_neighbourhood_rejects_empty_options(capsys):
    # an empty value is still the chosen option, not a fall-through to
    # --atlas
    for option in ("--sextic", "--product"):
        assert run(["neighbourhood", "-p", "23", option, ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: cannot parse ''"), err


def test_neighbourhood_product_needs_two_j_invariants(capsys):
    for value, n in (("1,2,3", 3), ("5", 1)):
        assert run(["neighbourhood", "-p", "23", "--product", value]) == 2
        assert capsys.readouterr().err \
            == f"error: --product: expected two j-invariants, got {n}\n"


def test_neighbourhood_sextic_needs_six_or_seven_coefficients(capsys):
    # nine values are not x^6 + 1 with two trailing zeros dropped, and
    # five are no genus-2 model; seven ending in 0 are still a quintic
    for value, n in (("1,0,0,0,0,0,1,0,0", 9), ("1,0,0,0,1", 5)):
        assert run(["neighbourhood", "-p", "23", f"--sextic={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err \
            == f"error: --sextic: expected 6 or 7 coefficients, got {n}\n"
    assert run(["neighbourhood", "-p", "19", "--sextic=-1,0,0,0,0,1,0"]) == 0
    assert "out-weight 15" in capsys.readouterr().out


def test_neighbourhood_params_need_atlas(capsys):
    # --params sets an atlas normal form's parameters; with --sextic or
    # --product it would be ignored, so it is refused
    for option in ("--sextic=1,0,0,0,0,0,1", "--product=0,1728"):
        assert run(["neighbourhood", "-p", "23", option,
                    "--params", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --params needs --atlas\n"


def test_neighbourhood_params_arity(capsys):
    # a wrong number of --params values is refused, not silently cut to
    # what the case reads or left to a raw unpacking error
    for case, value, k, n in (("III", "3,5", 1, 2), ("IV", "3,4", 1, 2),
                              ("V", "1,2,3", 0, 3), ("I", "3", 2, 1)):
        assert run(["neighbourhood", "-p", "23", "--atlas", case,
                    "--params", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err \
            == f"error: case {case} takes {k} parameters, got {n}\n"
    for case, value in (("I", "3,5"), ("III", "3"), ("IV", "3")):
        assert run(["neighbourhood", "-p", "23", "--atlas", case,
                    "--params", value]) == 0
        assert "out-weight 15" in capsys.readouterr().out


def test_neighbourhood_atlas_case(capsys):
    assert run(["neighbourhood", "-p", "23", "--atlas", "V"]) == 0
    assert "vertex type V" in capsys.readouterr().out


def test_max_prime_cap(capsys):
    assert run(["census", "-p", "307"]) == 2
    assert "cap" in capsys.readouterr().err


def test_cap_only_on_graph_commands(capsys):
    # verify-atlas and neighbourhood build no graph: any prime, no warning
    assert run(["verify-atlas", "-p", "1009"]) == 0
    out, err = capsys.readouterr()
    assert "FAIL" not in out and err == ""
    with pytest.raises(SystemExit) as exc:
        run(["neighbourhood", "-p", "29", "--atlas", "V",
             "--max-prime", "2000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-prime" in capsys.readouterr().err


def test_byte_identical_runs(capsys):
    assert run(["graph", "-p", "11", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["graph", "-p", "11", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_neighbourhood_atlas_factors_nothing(monkeypatch, capsys):
    # the normal form reaches neighbourhood as its K_1 splitting
    clear_genus2_caches()
    calls = count_calls(monkeypatch, "factor_quadratic_pieces", module=poly)
    assert run(["neighbourhood", "-p", "29", "--atlas", "III"]) == 0
    assert "vertex type III, out-weight 15" in capsys.readouterr().out
    assert calls == []
