import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    Perm, from_perm, is_inflatable, m_set, profile, reflection_report,
    search_inflatable, symmetry_defect, uniform,
)
from permutons.symmetry import _perm_chunks, _score_hits

from conftest import BALANCED_9

F = Fraction


def test_uniform_is_symmetric_at_every_order():
    for k in (2, 3, 4):
        v = symmetry_defect(uniform(), k)
        assert v.exact and v.defect == 0


def test_decreasing_pair_defect():
    v = symmetry_defect(from_perm(Perm((2, 1))), 2)
    assert v.exact
    assert v.defect == F(1, 4)
    assert v.densities[(1, 2)] == F(1, 4)
    assert not v.symmetric


def test_balanced_9_profile_and_defect():
    # the two balanced permutations share the 3-profile but not the 4-profile
    k4 = {BALANCED_9[0]: F(91, 2187), BALANCED_9[1]: F(58, 2187)}
    for tau in BALANCED_9:
        prof = profile(tau.images, 3)
        assert sorted(prof.values()) == [8, 8, 17, 17, 17, 17]
        assert prof[(1, 2, 3)] == 8 and prof[(3, 2, 1)] == 8
        v3 = symmetry_defect(from_perm(tau), 3)
        assert v3.exact and v3.defect == F(2, 81)
        assert v3.witness in ((1, 2, 3), (3, 2, 1))
        v4 = symmetry_defect(from_perm(tau), 4)
        assert v4.exact and v4.defect == k4[tau]


def test_mc_mode_tracks_exact():
    mu = from_perm(Perm((2, 1)))
    v = symmetry_defect(mu, 2, mode="mc", samples=200_000, seed=8)
    assert not v.exact
    assert v.samples == 200_000
    assert abs(v.densities[(1, 2)] - 0.25) < 4 * v.error_radius


def test_mode_validation():
    with pytest.raises(ValueError):
        symmetry_defect(uniform(), 2, mode="guess")
    with pytest.raises(ValueError):
        symmetry_defect(uniform(), 7)


def test_is_inflatable_positive_control():
    # occ_12 = (n^2 - n)/4 is attainable at n = 4
    ok, v = is_inflatable(Perm((2, 4, 1, 3)), 2)
    assert ok and v.defect == 0


def test_singleton_is_not_inflatable():
    ok, v = is_inflatable(Perm((1,)), 3)
    assert not ok
    assert v.defect == 0  # the defect vanishes; the length rule rejects it


def test_score_filter_matches_exact_verdicts_on_s5():
    # the six integer equalities must agree with the rational defect test
    import numpy as np
    batch = np.array(list(itertools.permutations(range(5))), dtype=np.int64)
    hits = set(map(tuple, batch[_score_hits(batch)] + 1))
    for tau in itertools.permutations(range(1, 6)):
        ok, _ = is_inflatable(Perm(tau), 3)
        assert ok == (tau in hits), tau


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(1, 7)))
def test_defect_is_orbit_invariant(tau):
    p = Perm(tuple(tau))
    base = symmetry_defect(from_perm(p), 3).defect
    for q in (p.reverse(), p.complement(), p.inverse(),
              p.reverse().complement(), p.inverse().reverse()):
        assert symmetry_defect(from_perm(q), 3).defect == base


@pytest.mark.parametrize("n", range(2, 8))
def test_search_k3_small_orders_empty(n):
    assert search_inflatable(n, 3) == []


def test_search_prune_consistency():
    assert search_inflatable(7, 3, prune=False) == search_inflatable(7, 3)
    assert search_inflatable(7, 4, prune=False) == search_inflatable(7, 4)


def test_search_threads_consistency():
    assert search_inflatable(8, 3, threads=4) == search_inflatable(8, 3)


@pytest.mark.parametrize("n", range(2, 10))
def test_perm_chunks_enumerate_sn_in_lexicographic_order(n):
    rows = np.concatenate(list(_perm_chunks(n)))
    expected = np.array(list(itertools.permutations(range(1, n + 1))))
    assert np.array_equal(rows, expected)


def test_search_memory_stays_bounded():
    # one block of 8! rows is live at a time, whatever threads says
    tracemalloc.start()
    try:
        assert search_inflatable(9, 3, threads=4) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20


def test_search_argument_validation():
    with pytest.raises(ValueError):
        search_inflatable(1, 3)
    with pytest.raises(ValueError):
        search_inflatable(11, 3)
    with pytest.raises(ValueError):
        search_inflatable(5, 2)


def test_reflection_report_on_balanced_family():
    family = list(BALANCED_9) + [t.complement() for t in BALANCED_9]
    rep = reflection_report(family)
    assert set(rep) == {"reverse", "complement", "inverse"}
    for op, pairs in rep.items():
        assert len(pairs) == len(family)
        assert {a for a, _ in pairs} == set(family)
        assert {b for _, b in pairs} == set(family)


def test_reflection_report_open_set():
    rep = reflection_report([Perm((1, 3, 2))])
    assert "reverse" not in rep
    assert "inverse" in rep  # 132 is its own inverse
