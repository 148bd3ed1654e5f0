import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    Perm, PermutonError, from_perm, grid_densities, is_inflatable, load_permuton, m_set, profile,
    reflection_report, search_inflatable, symmetry_defect, uniform,
)
from permutons import symmetry as symmetry_module
from permutons.counting import all_patterns, low_profiles, pattern_index
from permutons.measures import FLAT_TERMS, _flat_sums, _multiset_densities
from permutons.perms import defect_witness
from permutons.symmetry import _W3, _admitted_occ12, _end_filter, _order_conditions, \
    _perm_chunks, _score_hits

from conftest import BALANCED_9, FIXTURES, control_hits, occ_by_subsets

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


def test_order_17_fixture_is_3_inflatable():
    # 17 is the smallest order with a hit: below it the gate admits only 8
    # and 9 (test_order_gate_follows_the_congruences), both empty by search
    tau = load_permuton(FIXTURES / "inflatable17.permuton").permutation
    ok, v = is_inflatable(tau, 3)
    assert ok and v.exact and v.defect == 0
    four = symmetry_defect(from_perm(tau), 4)
    assert four.exact and four.defect == F(614, 14739)
    assert not is_inflatable(tau, 4)[0]


def test_singleton_is_not_inflatable():
    ok, v = is_inflatable(Perm((1,)), 3)
    assert not ok
    assert v.defect == 0  # the defect vanishes; the length rule rejects it


def test_score_filter_matches_exact_verdicts_on_s5():
    # the integer score must agree with the rational defect test
    import numpy as np
    for n in (4, 5, 6):
        batch = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        hits = set(map(tuple, batch[_score_hits(batch)] + 1))
        for tau in itertools.permutations(range(1, n + 1)):
            ok, _ = is_inflatable(Perm(tau), 3)
            assert ok == (tau in hits), tau


def test_score_sums_are_scaled_exact_densities(monkeypatch):
    # S_n has no 3-inflatable rows for n <= 10, so the mask alone cannot show
    # a wrong count; check every sum the score compares, S = 3! n^3 t(pi)
    sums = []

    def capture(profiles, k):
        sums.append(_flat_sums(profiles, k))
        return sums[-1]

    monkeypatch.setattr(symmetry_module, "_flat_sums", capture)
    for n in range(2, 7):
        batch = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
        _score_hits(batch)
        for row, tau in enumerate(batch.tolist()):
            dens = grid_densities(from_perm(Perm(tuple(tau))), 3)
            for pi, total in sums[-1].items():
                assert int(total[row]) == 6 * n ** 3 * dens[pi], (tau, pi)


# the eight rows of S_9 whose FLAT_TERMS[3] sums equal n^3 for 132, 213, 231
# and 312 but not for 123 and 321 (a scan of all of S_9)
NEAR_MISSES_9 = (
    (2, 6, 5, 9, 7, 1, 3, 4, 8), (2, 6, 7, 9, 3, 1, 5, 4, 8),
    (4, 9, 3, 2, 7, 8, 5, 1, 6), (4, 9, 5, 2, 3, 8, 7, 1, 6),
    (6, 1, 5, 8, 7, 2, 3, 9, 4), (6, 1, 7, 8, 3, 2, 5, 9, 4),
    (8, 4, 3, 1, 7, 9, 5, 6, 2), (8, 4, 5, 1, 3, 9, 7, 6, 2),
)


def test_score_rejects_order9_near_misses():
    # Fails a score that ignores both the 123 and the 321 sum.  The six sums
    # always add to 6 n^3, so a score that drops any single sum accepts the
    # same rows as the full one, and no input can tell them apart.
    assert not _score_hits(np.array(NEAR_MISSES_9, dtype=np.int64)).any()
    for tau in NEAR_MISSES_9:
        dens = _multiset_densities(from_perm(Perm(tau)), 3)
        assert [dens[pi] == F(1, 6) for pi in sorted(dens)] == \
            [False, True, True, True, True, False], tau


def _collected_terms(pi):
    """FLAT_TERMS[3][pi] as {(r, sigma): summed weight}."""
    out = {}
    for r, sigma, w in FLAT_TERMS[3][pi]:
        out[(r, sigma)] = out.get((r, sigma), 0) + w
    return out


def test_flat_terms_k3_are_the_six_score_equalities():
    # 36 occ(pi) + corr(pi) = n^3, corr = 18 occ12 + n for 123, 9 occ12 + n
    # for 132 and 213, 9 occ21 + n for 231 and 312, 18 occ21 + n for 321
    corr = {(1, 2, 3): ((1, 2), 18), (1, 3, 2): ((1, 2), 9),
            (2, 1, 3): ((1, 2), 9), (2, 3, 1): ((2, 1), 9),
            (3, 1, 2): ((2, 1), 9), (3, 2, 1): ((2, 1), 18)}
    assert list(FLAT_TERMS[3]) == list(corr)
    for pi, (pair, w) in corr.items():
        assert _collected_terms(pi) == {(3, pi): 36, (2, pair): w, (1, (1,)): 1}


def test_flat_terms_give_the_occ132_identity():
    # exact 3-symmetry forces occ(132) = (n^3 - n)/36 - occ(12)/4 (README)
    for n in range(3, 12):
        for occ12 in range(math.comb(n, 2) + 1):
            occ132 = F(n ** 3 - n, 36) - F(occ12, 4)
            profiles = {1: {(1,): n},
                        2: {(1, 2): occ12, (2, 1): math.comb(n, 2) - occ12},
                        3: {(1, 3, 2): occ132}}
            assert sum(w * profiles[r][s]
                       for r, s, w in FLAT_TERMS[3][(1, 3, 2)]) == n ** 3


def test_verdicts_take_the_shared_defect_rule():
    mu = from_perm(BALANCED_9[0])
    for v in (symmetry_defect(mu, 3), symmetry_defect(mu, 4),
              symmetry_defect(m_set(F(1, 2)), 3, samples=5000, seed=2)):
        assert (v.defect, v.witness) == defect_witness(v.densities, v.k)


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


def _every_occ12(n):
    """The all-true admission mask: _perm_chunks then yields all of S_n."""
    return np.ones(math.comb(n, 2) + 1, dtype=bool)


def _unfiltered_search(n):
    """Oracle for search_inflatable(n, 3): every admitted row of S_n scored,
    no end filter and no orbit expansion.  The score is read from the module
    so that a monkeypatched stand-in reaches it."""
    hits = []
    for block in _perm_chunks(n, _admitted_occ12(n)):
        hits.extend(map(tuple, block[symmetry_module._score_hits(block)].tolist()))
    return [Perm(h) for h in sorted(hits)]


def test_search_matches_the_unfiltered_scan():
    # order 7 admits no occ(12); order 8 scans its admitted rows both ways
    for n in (7, 8):
        assert search_inflatable(n, 3) == _unfiltered_search(n)


@pytest.mark.parametrize("n", range(2, 10))
def test_every_reverse_complement_orbit_meets_the_end_filter(n):
    # each row of S_n has one of its four reverse/complement images scored
    sn = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    images = (sn, sn[:, ::-1], n + 1 - sn, n + 1 - sn[:, ::-1])
    assert np.logical_or.reduce([_end_filter(v) for v in images]).all()


@pytest.mark.parametrize("n", range(2, 9))
def test_order_gate_models_the_score_sums(monkeypatch, n):
    # every sum _score_hits compares is _W3[pi] occ_3(pi) plus the r <= 2
    # terms the gate takes at that row's own occ(12), on all of S_n
    sums = []

    def capture(profiles, k):
        sums.append(_flat_sums(profiles, k))
        return sums[-1]

    monkeypatch.setattr(symmetry_module, "_flat_sums", capture)
    rows = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    _score_hits(rows)
    occ12 = occ_by_subsets(rows, 2)[:, 0]
    occ3 = occ_by_subsets(rows, 3)
    low = _flat_sums(low_profiles(n, occ12), 3)
    assert list(sums[-1]) == all_patterns(3)
    for j, pi in enumerate(all_patterns(3)):
        assert np.array_equal(_W3[pi] * occ3[:, j] + low[pi], sums[-1][pi]), pi


@pytest.mark.parametrize("n", range(2, 13))
def test_order_conditions_match_a_direct_search_per_pattern(n):
    # pi's condition admits occ(12) = a exactly when some occ_3(pi) in
    # 0..n^3 brings pi's FLAT_TERMS[3] sum to n^3
    conds = _order_conditions(n)
    assert list(conds) == all_patterns(3)
    occ = np.arange(n ** 3 + 1)
    for a in range(math.comb(n, 2) + 1):
        profiles = {1: {(1,): n}, 2: {(1, 2): a, (2, 1): math.comb(n, 2) - a},
                    3: dict.fromkeys(all_patterns(3), occ)}
        for pi, total in _flat_sums(profiles, 3).items():
            assert conds[pi][a] == (total == n ** 3).any(), (a, pi)


def test_order_gate_follows_the_congruences():
    assert [n for n in range(2, 26) if _admitted_occ12(n).any()] == [8, 9, 17]
    for n in range(2, 201):
        assert _admitted_occ12(n).any() == (n % 8 in (0, 1) and n % 9 in (0, 1, 8)), n


def test_ruled_out_orders_skip_enumeration(monkeypatch):
    def refuse(n, admitted):
        raise AssertionError(f"S_{n} enumerated")

    monkeypatch.setattr(symmetry_module, "_perm_chunks", refuse)
    for n, k in itertools.product((*range(2, 8), 10), (3, 4)):
        assert search_inflatable(n, k) == []


@pytest.mark.parametrize("n", range(2, 8))
def test_ruled_out_small_orders_have_no_score_hit(n):
    rows = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    assert not _admitted_occ12(n).any()
    assert not _score_hits(rows).any()


def test_order_10_has_no_score_hit():
    # the exhaustive oracle behind the gate's verdict on order 10: one pass
    # over the rows of S_10 that pass the end filter, one per
    # reverse/complement orbit at least
    assert not _admitted_occ12(10).any()
    for block in _perm_chunks(10, _every_occ12(10)):
        assert not _score_hits(block[_end_filter(block)]).any()


def test_search_threads_consistency():
    assert search_inflatable(8, 3, threads=4) == search_inflatable(8, 3)


@pytest.mark.parametrize("n", range(2, 10))
def test_perm_chunks_enumerate_sn_in_lexicographic_order(n):
    rows = np.concatenate(list(_perm_chunks(n, _every_occ12(n))))
    expected = np.array(list(itertools.permutations(range(1, n + 1))))
    assert np.array_equal(rows, expected)


@pytest.mark.parametrize("n", range(2, 10))
def test_admitted_chunks_are_the_sn_rows_with_admitted_occ12(n):
    # the search's rows: lexicographic S_n, filtered by a direct occ(12) count
    admitted = _admitted_occ12(n)
    rows = np.concatenate(list(_perm_chunks(n, admitted)))
    sn = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    expected = sn[admitted[occ_by_subsets(sn, 2)[:, 0]]]
    assert np.array_equal(rows, expected)
    assert len(rows) == (math.factorial(n) // 4 if n in (8, 9) else 0)


@pytest.mark.parametrize("n", range(2, 8))
def test_admission_counts_pairs_across_longer_prefixes(monkeypatch, n):
    # orders 8 and 9 have prefixes of length 0 and 1; tails of length 2 give
    # prefixes up to length 5, and arbitrary masks stand in for the gate's
    monkeypatch.setattr(symmetry_module, "_TAIL", 2)
    sn = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    occ12 = occ_by_subsets(sn, 2)[:, 0]
    for mask in (np.arange(math.comb(n, 2) + 1) % 3 == 1,
                 np.arange(math.comb(n, 2) + 1) >= math.comb(n, 2) // 2):
        rows = np.concatenate(list(_perm_chunks(n, mask)))
        assert np.array_equal(rows, sn[mask[occ12]]), mask


def test_admission_keeps_every_row_of_a_positive_control(monkeypatch):
    # S_9 has no 3-inflatable row, so an empty result cannot show a dropped
    # hit; this predicate's hits have occ(12) in {16, 20}, both admitted
    sn = np.array(list(itertools.permutations(range(1, 10))), dtype=np.int64)
    expected = [Perm(tuple(row)) for row in sn[control_hits(sn)].tolist()]
    assert len(expected) == 240
    monkeypatch.setattr(symmetry_module, "_score_hits", control_hits)
    assert search_inflatable(9, 3) == expected
    assert _unfiltered_search(9) == expected


def test_search_memory_stays_bounded():
    # one block of 8! rows is live at a time, whatever threads says
    tracemalloc.start()
    try:
        assert search_inflatable(9, 3, threads=4) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20


def test_admitted_search_peak_stays_small():
    # a quarter of each 8!-row block is generated, and the end filter and
    # the score see only that quarter
    tracemalloc.start()
    try:
        assert search_inflatable(9, 3) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


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


def test_exact_verdicts_are_refused_off_their_path():
    with pytest.raises(PermutonError, match="exact verdicts need a grid permuton"):
        symmetry_defect(m_set(Fraction(1, 2)), 3, mode="exact")
    with pytest.raises(PermutonError, match="supports 1 <= k <= 4"):
        is_inflatable((2, 4, 1, 3), 5)
    # a plain tuple is read as the Perm it spells
    assert is_inflatable((2, 4, 1, 3), 2) == is_inflatable(Perm((2, 4, 1, 3)), 2)
