import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    Perm, PermError, all_densities, density_exact, density_sampled, induce,
    parse_perm, reflections,
)
from permutons import counting
from permutons.perms import _check_exact_size

perms = st.permutations(range(1, 8)).map(lambda v: Perm(tuple(v)))


def test_construction_rejects_non_bijections():
    with pytest.raises(PermError):
        Perm((1, 1))
    with pytest.raises(PermError):
        Perm((0, 1))
    with pytest.raises(PermError):
        Perm((2, 3))
    with pytest.raises(PermError):
        Perm(())


def test_call_and_len():
    p = Perm((3, 1, 2))
    assert len(p) == 3
    assert [p(i) for i in (1, 2, 3)] == [3, 1, 2]
    with pytest.raises(PermError):
        p(4)


def test_parse_formats():
    assert parse_perm("3 1 2") == Perm((3, 1, 2))
    assert parse_perm("3,1,2") == Perm((3, 1, 2))
    assert parse_perm("# header\n2 1\n") == Perm((2, 1))
    with pytest.raises(PermError):
        parse_perm("1 2 2")
    with pytest.raises(PermError):
        parse_perm("1 3")
    with pytest.raises(PermError):
        parse_perm("")
    with pytest.raises(PermError):
        parse_perm("1 a 2")


@given(perms)
def test_parse_one_line_roundtrip(p):
    assert parse_perm(p.one_line()) == p


@given(perms)
def test_reflections_are_involutions(p):
    r = reflections(p)
    assert r.reverse.reverse() == p
    assert r.complement.complement() == p
    assert r.inverse.inverse() == p


@given(perms)
def test_reverse_complement_commute(p):
    assert p.reverse().complement() == p.complement().reverse()


def test_induce():
    tau = Perm((4, 3, 8, 9, 5, 1, 2, 7, 6))
    assert induce(tau, (1, 4, 6)) == Perm((2, 3, 1))
    assert induce(tau, tuple(range(1, 10))) == tau
    with pytest.raises(PermError):
        induce(tau, (3, 3))
    with pytest.raises(PermError):
        induce(tau, (0, 2))


def test_density_exact_small_cases():
    assert density_exact(Perm((1, 2)), Perm((1, 3, 2))) == Fraction(2, 3)
    assert density_exact(Perm((1,)), Perm((2, 1))) == 1
    assert density_exact(Perm((1, 2, 3)), Perm((3, 2, 1))) == 0
    with pytest.raises(PermError):
        density_exact(Perm((1, 2, 3)), Perm((2, 1)))


@given(perms, st.permutations(range(1, 4)).map(lambda v: Perm(tuple(v))))
def test_density_respects_reverse_symmetry(tau, pi):
    # reversing both pattern and host permutes the occurrence sets bijectively
    assert density_exact(pi, tau) == density_exact(pi.reverse(), tau.reverse())


@given(perms)
def test_densities_sum_to_one(tau):
    for k in (1, 2, 3):
        rep = all_densities(k, tau)
        assert sum(rep.entries.values()) == 1
        assert len(rep.entries) == math.factorial(k)


def test_densities_defect_and_witness():
    rep = all_densities(3, Perm((2, 4, 1, 5, 3)))
    assert rep.defect == Fraction(1, 6)
    assert rep.witness == Perm((3, 2, 1))
    assert rep.entries[Perm((3, 2, 1))] == 0


def test_exact_size_limits_are_validation_errors():
    big = Perm(tuple(range(1, 10_002)))
    with pytest.raises(PermError, match="10000"):
        all_densities(4, big)
    with pytest.raises(PermError, match="10000"):
        density_exact(Perm((2, 1, 4, 3)), big)
    with pytest.raises(PermError, match="60"):
        density_exact(Perm((1, 2, 3, 4, 5)), Perm(tuple(range(1, 62))))


def test_profile3_size_limit_is_a_validation_error():
    _check_exact_size(3, counting.PROFILE3_MAX_N)
    with pytest.raises(PermError, match=str(counting.PROFILE3_MAX_N)):
        _check_exact_size(3, counting.PROFILE3_MAX_N + 1)


def test_density_sampled_matches_exact():
    pi, tau = Perm((1, 2)), Perm((2, 4, 1, 5, 3))
    exact = density_exact(pi, tau)
    est, ci = density_sampled(pi, tau, 40_000, seed=5)
    assert abs(est - exact) < 4 * ci


def test_density_sampled_reproducible():
    pi, tau = Perm((2, 1, 3)), Perm((6, 3, 5, 1, 4, 2, 7))
    a = density_sampled(pi, tau, 10_000, seed=77)
    b = density_sampled(pi, tau, 10_000, seed=77)
    assert a == b
