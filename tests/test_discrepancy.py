import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import Perm, PermError, discrepancy, discrepancy_brute
from permutons.discrepancy import EXACT_MAX_N, PREFIX_BOUND_MAX_N

# the package's name `discrepancy` is the function, so fetch the module itself
discrepancy_mod = importlib.import_module("permutons.discrepancy")


def test_identity_discrepancy():
    # worst box for id_n is a half square missing the diagonal strip
    res = discrepancy(Perm.identity(4))
    assert res.value == res.lower == res.upper
    assert res.numerator == 4
    assert res.value == 4 / 16


def test_monotone_extremes():
    for n in (2, 5, 9):
        inc = discrepancy(Perm.identity(n))
        dec = discrepancy(Perm.identity(n).reverse())
        assert inc.value == dec.value  # reversal maps boxes to boxes


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(1, 13)))
def test_exact_equals_brute(tau):
    p = Perm(tuple(tau))
    assert discrepancy(p).numerator == discrepancy_brute(p).numerator


def test_exact_equals_brute_larger():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        p = Perm(tuple(int(v) + 1 for v in rng.permutation(n)))
        assert discrepancy(p).numerator == discrepancy_brute(p).numerator


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(1, 15)))
def test_prefix_bound_sandwich(tau):
    p = Perm(tuple(tau))
    exact = discrepancy(p)
    pre = discrepancy(p, mode="prefix_bound")
    assert pre.lower <= exact.value + 1e-12
    assert exact.value <= pre.upper + 1e-12


def test_grid_mode_encloses_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(30, 120))
        p = Perm(tuple(int(v) + 1 for v in rng.permutation(n)))
        exact = discrepancy(p)
        grid = discrepancy(p, mode="grid", resolution=16)
        assert grid.lower <= exact.value + 1e-12
        assert exact.value <= grid.upper + 1e-12


@pytest.mark.parametrize("resolution", [1, 0, -3])
def test_grid_mode_refuses_resolutions_below_two(resolution):
    for tau in (Perm((1,)), Perm((2, 4, 1, 3))):
        with pytest.raises(PermError, match="resolution must be >= 2"):
            discrepancy(tau, mode="grid", resolution=resolution)


def test_grid_mode_clamps_resolution_to_n():
    p = Perm((3, 1, 4, 2, 5))
    assert discrepancy(p, mode="grid", resolution=2) != \
        discrepancy(p, mode="grid", resolution=5)
    assert discrepancy(p, mode="grid", resolution=1000) == \
        discrepancy(p, mode="grid", resolution=5)
    assert discrepancy(p, mode="grid", resolution=5).lower == discrepancy(p).value


def test_reflection_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = Perm(tuple(int(v) + 1 for v in rng.permutation(20)))
        d = discrepancy(p).numerator
        assert discrepancy(p.reverse()).numerator == d
        assert discrepancy(p.complement()).numerator == d
        assert discrepancy(p.inverse()).numerator == d


def test_bad_mode():
    with pytest.raises(ValueError):
        discrepancy(Perm((2, 1)), mode="psychic")


def _exact_numerator_loop(v):
    """O(n^3) oracle: for each position interval (a1, a2] the best value
    interval is the spread of P[b] = n * #{a1 < i <= a2 : v_i <= b} - (a2 - a1) b."""
    n = len(v)
    bgrid = np.arange(n + 1, dtype=np.int64)
    best = 0
    for a1 in range(n):
        cnt = np.zeros(n + 1, dtype=np.int64)
        for a2 in range(a1 + 1, n + 1):
            cnt[v[a2 - 1]:] += n
            P = cnt - (a2 - a1) * bgrid
            best = max(best, int(P.max() - P.min()))
    return best


def test_exact_equals_loop_oracle_beyond_brute_range():
    rng = np.random.default_rng(31)
    for n in [51, 200] + [int(x) for x in rng.integers(52, 200, 10)]:
        v = tuple(int(x) + 1 for x in rng.permutation(n))
        res = discrepancy(Perm(v))
        assert res.numerator == _exact_numerator_loop(v), n
        assert res.mode == "exact"
        assert res.value == res.lower == res.upper == res.numerator / n**2


def test_exact_refuses_beyond_size_limit():
    with pytest.raises(PermError, match="prefix_bound.*grid"):
        discrepancy(Perm.identity(EXACT_MAX_N + 1))


@pytest.mark.parametrize("n", [1, 2])
def test_unknown_mode_is_refused_at_every_length(n):
    with pytest.raises(ValueError, match="unknown discrepancy mode 'bogus'"):
        discrepancy(Perm.identity(n), mode="bogus")


def test_prefix_bound_refuses_beyond_size_limit(monkeypatch):
    with pytest.raises(PermError, match="prefix_bound.*grid mode"):
        discrepancy(Perm.identity(PREFIX_BOUND_MAX_N + 1), mode="prefix_bound")
    # the limit itself is still served
    monkeypatch.setattr(discrepancy_mod, "PREFIX_BOUND_MAX_N", 5)
    assert discrepancy(Perm((2, 4, 1, 5, 3)), mode="prefix_bound").mode == "prefix_bound"
    with pytest.raises(PermError, match="n <= 5"):
        discrepancy(Perm.identity(6), mode="prefix_bound")


@pytest.mark.parametrize("mode", ["exact", "prefix_bound", "grid"])
@pytest.mark.parametrize("tau", [(5, 7, 9), [0, 1, 2], (1, 1, 2), (2,)])
def test_discrepancy_refuses_non_permutations(tau, mode):
    # (5, 7, 9) failed a reshape in the exact and grid modes and read 1.0 in
    # prefix_bound; [0, 1, 2] read 4/9
    with pytest.raises(PermError, match=r"not a permutation of 1\.\."):
        discrepancy(tau, mode=mode)


@pytest.mark.parametrize("mode", ["exact", "prefix_bound", "grid"])
def test_one_point_has_no_discrepancy(mode):
    res = discrepancy(Perm((1,)), mode=mode)
    assert discrepancy_brute(Perm((1,))).numerator == res.numerator == 0
    assert (res.value, res.lower, res.upper, res.mode, res.n) == (0.0, 0.0, 0.0, mode, 1)
