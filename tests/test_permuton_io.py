from fractions import Fraction

import pytest

from permutons import (
    GridPermuton, MixturePermuton, Perm, PermutonError, SegmentPermuton,
    cdf, load_permuton, m_set, parse_permuton,
)

F = Fraction


def test_perm_kind():
    mu = parse_permuton("type perm\nperm 3 1 2\n")
    assert isinstance(mu, GridPermuton)
    assert mu.permutation == Perm((3, 1, 2))


def test_grid_kind_with_comments_and_rationals():
    text = """
    # a checkerboard
    type grid
    n 2
    mass 1/4 0.25
    mass 1/4 1/4
    """
    mu = parse_permuton(text)
    assert mu.cells[(1, 1)] == F(1, 4)
    assert mu.cells[(2, 2)] == F(1, 4)


def test_segments_kind_default_masses():
    mu = parse_permuton("type segments\nsegment 0 0 1 1\n")
    assert isinstance(mu, SegmentPermuton)
    assert mu.segments[0].mass == 1


def test_m_set_kind():
    mu = parse_permuton("type m_set\na 1/2\n")
    assert cdf(mu, F(1, 2), F(1, 2)) == cdf(m_set(F(1, 2)), F(1, 2), F(1, 2))


def test_mixture_kind_nested():
    text = (
        "type mixture\n"
        "component 1/3\n"
        "  type m_set\n"
        "  a 0\n"
        "component 2/3\n"
        "  type mixture\n"
        "  component 1/2\n"
        "    type perm\n"
        "    perm 1 2\n"
        "  component 1/2\n"
        "    type perm\n"
        "    perm 2 1\n"
    )
    mu = parse_permuton(text)
    assert isinstance(mu, MixturePermuton)
    assert mu.weights == (F(1, 3), F(2, 3))
    assert isinstance(mu.components[1], MixturePermuton)


def test_parse_errors():
    with pytest.raises(PermutonError):
        parse_permuton("")
    with pytest.raises(PermutonError):
        parse_permuton("type wibble\n")
    with pytest.raises(PermutonError):
        parse_permuton("type grid\nn 2\nmass 1/2 0\nmass 0 1/4\n")
    with pytest.raises(PermutonError):
        parse_permuton("type perm\nperm 1 1\n")
    with pytest.raises(PermutonError):
        parse_permuton("type m_set\na 2\n")
    with pytest.raises(PermutonError):
        parse_permuton("type mixture\ncomponent 1\n")  # missing body
    with pytest.raises(PermutonError, match="two"):
        parse_permuton("type grid\nn two\nmass 1\n")
    # beyond the float range, or a five-digit exponent (Fraction would build
    # 10^exp exactly; 1e-99999 is refused by its exponent alone)
    for text in ("type m_set\na 1e400\n", "type segments\nsegment 0 0 1e999 1\n",
                 "type m_set\na 1e-99999\n", "type m_set\na 5E+10000\n"):
        with pytest.raises(PermutonError, match="bad number"):
            parse_permuton(text)


def test_decimals_and_exponents_are_exact():
    assert parse_permuton("type m_set\na 0.1\n") == m_set(F(1, 10))
    tiny = parse_permuton("type m_set\na 1e-400\n")
    assert tiny == m_set(F(1, 10 ** 400)) and tiny != m_set(0)
    assert parse_permuton("type m_set\na 25E-2\n") == m_set(F(1, 4))


def test_load_rejects_nonuniform_marginals(tmp_path):
    bad = tmp_path / "bad.permuton"
    bad.write_text("type segments\nsegment 0 0 1 0.5\n")
    with pytest.raises(PermutonError, match="strip"):
        load_permuton(bad)


def test_load_accepts_tent_map(tmp_path):
    # two overlapping half-density layers keep the y marginal uniform
    tent = tmp_path / "tent.permuton"
    tent.write_text("type segments\nsegment 0 0 0.5 1\nsegment 0.5 1 1 0\n")
    mu = load_permuton(tent)
    assert isinstance(mu, SegmentPermuton)


def test_load_roundtrip_fixture(tmp_path):
    p = tmp_path / "g.permuton"
    p.write_text("type perm\nperm 2 1\n")
    mu = load_permuton(p)
    assert mu.permutation == Perm((2, 1))


@pytest.mark.parametrize("text, message", [
    ("type m_set\na 0\ntype m_set\na 1\n", "trailing content"),
    ("type m_set\na 0\na 1\n", "duplicate field 'a'"),
    ("type m_set\n", "missing field"),
    ("type grid\nn 2\nmass 1/2 0\n", "grid expects 2 mass rows, got 1"),
    ("type grid\nn 1\nmass 1 0\n", "row 1: expected 'mass' and 1 entries"),
    ("type grid\nn 1\nmas 1\n", "row 1: expected 'mass'"),
    ("type segments\n", "segments block is empty"),
    ("type mixture\ncomponent 1/2\ncomponent 1/2\n  type m_set\n  a 0\n",
     "component without a nested description"),
    # a nested line indented less than its type line ends the block
    ("type mixture\ncomponent 1\n    type m_set\n   xa 1/2\n", "missing field"),
    ("type mixture\ncomponent 1\n    type perm\n   zzzperm 2 1\n", "missing field"),
])
def test_each_refusal_names_its_fault(text, message):
    with pytest.raises(PermutonError, match=message):
        parse_permuton(text)
