import csv
from pathlib import Path

import pytest

from permutons import Perm, analysis, measures
from permutons import symmetry as symmetry_mod
from permutons.cli import main


@pytest.fixture
def grid_file(tmp_path):
    p = tmp_path / "g.permuton"
    p.write_text("type perm\nperm 2 1\n")
    return str(p)


@pytest.fixture
def mset_file(tmp_path):
    p = tmp_path / "m.permuton"
    p.write_text("type m_set\na 1/2\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_exact(capsys):
    code, out, _ = run(capsys, "density", "1 2", "1 3 2")
    assert code == 0
    assert out.startswith("t = 2/3")


def test_density_mc_seeded(capsys):
    a = run(capsys, "density", "1 2", "2 4 1 5 3", "--mode", "mc",
            "--samples", "5000")
    b = run(capsys, "density", "1 2", "2 4 1 5 3", "--mode", "mc",
            "--samples", "5000")
    assert a == b and a[0] == 0
    assert "seed = 20130409" in a[1]


def test_densities_text_and_csv(capsys):
    code, out, _ = run(capsys, "densities", "2", "2 4 1 5 3")
    assert code == 0 and "defect =" in out
    code, out, _ = run(capsys, "densities", "2", "2 4 1 5 3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "pattern,density"


def test_discrepancy_modes(capsys):
    code, out, _ = run(capsys, "discrepancy", "3 1 4 2 5")
    assert code == 0 and "value = 0.16" in out
    code, out, _ = run(capsys, "discrepancy", "3 1 4 2 5",
                       "--method", "grid", "--resolution", "4")
    assert code == 0 and "mode = grid" in out


def test_discrepancy_exact_size_limit_is_an_error(capsys):
    code, _, err = run(capsys, "discrepancy",
                       " ".join(map(str, range(1, 2002))))
    assert code == 1 and err.startswith("error:") and "grid" in err


def test_permuton_density_auto_modes(capsys, grid_file, mset_file):
    code, out, _ = run(capsys, "permuton-density", "1 2", grid_file)
    assert code == 0 and "t = 1/4" in out and "mode = exact" in out
    code, out, _ = run(capsys, "permuton-density", "1 2", mset_file,
                       "--samples", "20000")
    assert code == 0 and "mode = mc" in out


def test_sample_shapes(capsys, mset_file):
    code, out, _ = run(capsys, "sample", mset_file, "3", "4", "--seed", "5")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert all(sorted(r.split()) == ["1", "2", "3"] for r in rows)


def test_symmetry_exact(capsys, grid_file):
    code, out, _ = run(capsys, "symmetry", grid_file, "2")
    assert code == 0 and "defect = 1/4" in out


def test_inflatable(capsys):
    code, out, _ = run(capsys, "inflatable", "2 4 1 3", "2")
    assert code == 0 and "inflatable = yes" in out
    code, out, _ = run(capsys, "inflatable", "4 3 8 9 5 1 2 7 6", "3")
    assert code == 0 and "inflatable = no" in out and "2/81" in out


def test_search_empty_still_succeeds(capsys):
    code, out, _ = run(capsys, "search-inflatable", "5", "3")
    assert code == 0
    assert out.strip() == "count=0"


def test_search_reports_reflections(capsys, monkeypatch):
    fam = [Perm((4, 3, 8, 9, 5, 1, 2, 7, 6)), Perm((4, 7, 2, 9, 5, 1, 8, 3, 6))]
    fam += [t.complement() for t in fam]
    monkeypatch.setattr(symmetry_mod, "search_inflatable",
                        lambda n, k, threads=1: sorted(fam))
    code, out, _ = run(capsys, "search-inflatable", "9", "3")
    assert code == 0
    assert "count=4" in out
    for op in ("reverse", "complement", "inverse"):
        assert f"closed under {op}:" in out


def test_integrals_chain_identity(capsys, grid_file):
    code, out, _ = run(capsys, "integrals", grid_file)
    assert code == 0 and "i1 = 1/36" in out
    code, out, _ = run(capsys, "chain", grid_file)
    assert code == 0 and "slack[marginal] = 0" in out
    code, out, _ = run(capsys, "identity", grid_file)
    assert code == 0 and "pass = True" in out


def test_identity_exact_mode_without_exact_path_is_an_error(capsys):
    fixture = str(Path(__file__).parent / "fixtures" / "diagonals.permuton")
    code, out, err = run(capsys, "identity", fixture, "--mode", "exact",
                         "--samples", "1000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "exact" in err


def test_find_b_cli(capsys):
    code, out, _ = run(capsys, "find-b", "--tol", "1e-3")
    assert code == 0 and out.startswith("b = ")


@pytest.mark.parametrize("cmd", ["find-b", "find-nu"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1e-3"])
def test_root_finders_refuse_tol_not_above_zero(capsys, cmd, tol):
    code, out, err = run(capsys, cmd, f"--tol={tol}")
    assert code == 1 and out == ""
    assert err == "error: tol must be positive\n"


def test_resolution_zero_is_refused_not_defaulted(capsys, grid_file):
    # only an absent --resolution takes the default; 0 is an invalid value
    for argv in (("discrepancy", "2 1 3", "--method", "grid"),
                 ("integrals", grid_file), ("check-marginals", grid_file)):
        code, out, err = run(capsys, *argv, "--resolution", "0")
        assert code == 1 and out == "" and "resolution" in err, argv
        assert run(capsys, *argv)[0] == 0, argv


def test_quadrature_resolution_past_the_limit_is_refused(
        capsys, monkeypatch, mset_file, tmp_path):
    def refuse(*_):
        raise AssertionError("integrated before the resolution check")
    # a missed refusal ends in an internal error, not in r^2 midpoints
    monkeypatch.setattr(analysis, "_mc_cdf_means", refuse)
    monkeypatch.setattr(analysis, "_quad_f2_lambda", refuse)
    out = tmp_path / "out.txt"
    for cmd in ("integrals", "chain"):
        code, text, err = run(capsys, cmd, mset_file, "--resolution", "20000",
                              "--out", str(out))
        assert code == 1 and text == "" and not out.exists(), cmd
        assert "QUADRATURE_MAX_RESOLUTION = 4000" in err, cmd


@pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
def test_check_marginals_refuses_tol_below_zero(capsys, mset_file, tol):
    code, out, err = run(capsys, "check-marginals", mset_file, f"--tol={tol}")
    assert code == 1 and "pass =" not in out
    assert err == "error: tol must be >= 0\n"
    code, out, _ = run(capsys, "check-marginals", mset_file, "--tol=0")
    assert code == 0 and "pass = True" in out


def test_check_marginals_refuses_resolution_past_the_limit(
        capsys, monkeypatch, mset_file, tmp_path):
    def refuse(*_):
        raise AssertionError("strip masses computed before the resolution check")
    monkeypatch.setattr(measures.Permuton, "strip_masses", refuse)
    out = tmp_path / "out.txt"
    code, text, err = run(capsys, "check-marginals", mset_file, "--resolution",
                          "1000000000", "--out", str(out))
    assert code == 1 and text == "" and not out.exists()
    assert err == ("error: resolution 1000000000 is over the limit "
                   "MARGINAL_MAX_RESOLUTION = 100000\n")


def test_converge_csv(capsys, grid_file):
    code, out, _ = run(capsys, "converge", grid_file, "2", "20", "40",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,pattern,density,discrepancy,bound"
    assert len(lines) == 5  # two sizes x two patterns


def test_converge_text_rows_carry_the_csv_fields(capsys, grid_file):
    argv = ("converge", grid_file, "2", "20", "40")
    code, text, _ = run(capsys, *argv)
    assert code == 0
    _, table, _ = run(capsys, *argv, "--format", "csv")
    want = [f"n={n} pattern=({p}) density={d} discrepancy={q} bound={b}"
            for n, p, d, q, b in csv.reader(table.splitlines()[1:])]
    assert text.splitlines() == want


def test_sample_csv_holds_the_text_rows(capsys, mset_file):
    argv = ("sample", mset_file, "4", "5", "--seed", "7")
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, table, _ = run(capsys, *argv, "--format", "csv")
    rows = list(csv.reader(table.splitlines()))
    assert code == 0 and rows[0] == ["permutation"]
    assert [r[0].replace(",", " ") for r in rows[1:]] == text.splitlines()


def test_permutation_arguments_read_from_files(capsys, tmp_path):
    pi, tau = tmp_path / "pi.txt", tmp_path / "tau.txt"
    pi.write_text("1 2\n")
    tau.write_text("1,3,2\n")
    assert run(capsys, "density", str(pi), str(tau)) == \
        run(capsys, "density", "1 2", "1 3 2") == (0, "t = 2/3 (0.666666666667)\n", "")


def test_integer_arguments_are_inline_and_paths_are_explicit(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1").write_text("2 1\n")
    assert run(capsys, "density", "1", "1 2 3") == (0, "t = 1 (1)\n", "")
    assert run(capsys, "density", "./1", "1 2 3") == (0, "t = 0 (0)\n", "")


def test_check_marginals_pass_fail(capsys, tmp_path, grid_file):
    code, out, _ = run(capsys, "check-marginals", grid_file)
    assert code == 0 and "pass = True" in out
    bad = tmp_path / "bad.permuton"
    bad.write_text("type segments\nsegment 0 0 1 0.5\n")
    code, out, _ = run(capsys, "check-marginals", str(bad))
    assert code == 1 and "pass = False" in out


def test_out_file_byte_identical(capsys, tmp_path, mset_file):
    o1, o2 = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "sample", mset_file, "4", "3", "--seed", "2", "--out", str(o1))
    run(capsys, "sample", mset_file, "4", "3", "--seed", "2", "--out", str(o2))
    assert o1.read_bytes() == o2.read_bytes()


def test_no_partial_output_on_validation_failure(capsys, tmp_path):
    out = tmp_path / "never.txt"
    code, _, err = run(capsys, "density", "1 2 2", "1 2 3",
                       "--out", str(out))
    assert code == 1
    assert not out.exists()
    assert "error" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and "usage" in err
    code, _, err = run(capsys, "density", "1 2", "2 1", "--wibble")
    assert code == 1 and "usage" in err
    code, _, err = run(capsys, "search-inflatable", "5", "3", "--threads", "2")
    assert code == 1 and "error: unrecognized arguments: --threads 2" in err
    code, _, err = run(capsys, "search-inflatable", "5", "3", "--no-prune")
    assert code == 1 and "error: unrecognized arguments: --no-prune" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "integrals", "/nonexistent/x.permuton")
    assert code == 1 and "error" in err


def test_internal_error_exit_code(capsys, monkeypatch, grid_file):
    def boom(*_):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(analysis, "lemma_integrals", boom)
    code, _, err = run(capsys, "integrals", grid_file)
    assert code == 2 and "internal error" in err


@pytest.mark.parametrize("argv", [
    ("integrals", "{dir}"),
    ("integrals", "{latin1}"),
    ("density", "1", "{dir}"),
    ("find-b", "--out", "{dir}/missing/x.txt"),
])
def test_unreadable_inputs_and_outputs_are_validation_errors(capsys, tmp_path, argv):
    latin1 = tmp_path / "latin1.permuton"
    latin1.write_bytes(b"\xff\xfetype m_set\na 1/2\n")
    code, out, err = run(capsys, *(a.format(dir=tmp_path, latin1=latin1)
                                   for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_symmetry_mc_refuses_bad_sample_counts(capsys, mset_file, samples):
    code, out, err = run(capsys, "symmetry", mset_file, "3", "--mode", "mc",
                         "--samples", samples)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "samples must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("density", "1 2", "2 4 1 5 3", "--mode", "mc"),
    ("permuton-density", "1 2 3", "{mset}"),
    ("integrals", "{mset}"),
    ("sample", "{mset}", "3", "2"),
    ("converge", "{mset}", "2", "5"),
])
def test_negative_seed_is_a_validation_error(capsys, mset_file, argv):
    code, out, err = run(capsys, *(a.format(mset=mset_file) for a in argv),
                         "--seed", "-3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "non-negative" in err


@pytest.mark.parametrize("text", [
    "type grid\nn two\nmass 1\n",
    "type m_set\na 1e400\n",
    "type segments\nsegment 0 0 1e999 1\n",
    "type m_set\na 1e99999\n",
])
def test_malformed_permuton_file_is_a_validation_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.permuton"
    bad.write_text(text)
    out = tmp_path / "never.txt"
    code, stdout, err = run(capsys, "symmetry", str(bad), "3", "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("error: ")
    assert not out.exists()
