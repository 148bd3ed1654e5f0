"""The shared Monte Carlo chunk loop and the seeded streams of its estimators.

The pinned numbers are the outputs of the per-estimator chunk loops that
`perms.mc_chunks` replaced; any change in draw order, chunk size or
interval arithmetic shows up here as an inequality.
"""

from fractions import Fraction as F

import pytest

from permutons import (
    Budget, Perm, PermError, density_mc, density_sampled, event_prob_mc,
    from_perm, identity_check, lemma_integrals, m_set, nu_mixture,
    pattern_histogram_mc, symmetry_defect, uniform,
)
from permutons.perms import mc_chunks

TAU9 = Perm((3, 1, 4, 2, 6, 5, 8, 7, 9))
TAU100 = Perm((
    49, 9, 17, 82, 7, 100, 39, 6, 56, 35, 21, 68, 57, 86, 88, 18, 61, 44, 20,
    81, 46, 15, 63, 71, 76, 95, 55, 48, 85, 24, 31, 30, 80, 45, 72, 67, 29, 62,
    16, 40, 64, 74, 53, 28, 4, 69, 36, 22, 8, 66, 23, 32, 65, 14, 89, 99, 25,
    34, 90, 96, 87, 91, 26, 10, 58, 79, 1, 50, 19, 5, 38, 2, 12, 13, 84, 98,
    93, 41, 11, 59, 94, 27, 92, 97, 54, 51, 3, 43, 77, 75, 52, 37, 70, 73, 33,
    42, 47, 83, 78, 60))
MUS = {
    "uniform": uniform(),
    "grid": from_perm(TAU9),
    "m_set": m_set(F(3083, 6400)),
    "nu": nu_mixture(F(1, 2)),
}

# hits of density_mc((1, 3, 2), mu, 20_000, 5) and of
# event_prob_mc(mu, (1, 3, 2), (2, 1, 3), 20_000, 5)
DENSITY_HITS = {"uniform": 3324, "grid": 3130, "m_set": 3415, "nu": 3351}
EVENT_HITS = {"uniform": 523, "grid": 62, "m_set": 587, "nu": 545}

# pattern_histogram_mc(mu, k, 6_000, 7), patterns in lexicographic order
HISTOGRAMS = {
    ("uniform", 3): [999, 997, 1008, 997, 978, 1021],
    ("uniform", 4): [251, 238, 233, 255, 240, 227, 248, 250, 270, 243, 283,
                     264, 239, 239, 252, 230, 279, 250, 238, 267, 257, 250,
                     262, 235],
    ("grid", 3): [3331, 926, 1366, 120, 115, 142],
    ("grid", 4): [1826, 717, 824, 70, 75, 134, 1129, 368, 215, 13, 0, 11, 250,
                  24, 228, 3, 23, 13, 13, 13, 9, 9, 22, 11],
    ("m_set", 3): [979, 962, 982, 1043, 998, 1036],
    ("m_set", 4): [235, 253, 240, 229, 264, 269, 278, 260, 245, 274, 234, 256,
                   218, 220, 258, 238, 283, 253, 244, 246, 261, 240, 242, 260],
    ("nu", 3): [1056, 926, 1007, 986, 948, 1077],
    ("nu", 4): [285, 224, 229, 235, 235, 271, 243, 233, 269, 240, 263, 243,
                239, 238, 259, 250, 250, 263, 258, 239, 231, 270, 249, 284],
}

# symmetry_defect(mu, 3, mode="mc", samples=6_000, seed=7):
# (defect, witness, error_radius)
SYMMETRY = {
    "uniform": (0.0036666666666666514, (3, 1, 2), 0.012496089819936489),
    "grid": (0.38850000000000007, (1, 2, 3), 0.01652539340915223),
    "m_set": (0.007166666666666682, (2, 3, 1), 0.012602067969749903),
    "nu": (0.012833333333333335, (3, 2, 1), 0.012761830541855753),
}

# Budget(samples=20_000, seed=3, mode="mc"):
# lemma_integrals (i1, i2, i3, error_radius), identity_check (lhs, radius)
LEMMA = {
    "uniform": (0.10880962353704171, 0.10880962353704171, 0.11140080675601635,
                (0.0029503651769452266, 0.0029503651769452266,
                 0.0030323198701876714)),
    "grid": (0.2581972776972338, 0.2184517147861843, 0.16119628316467519,
             (0.004960700260657214, 0.004800592941725207,
              0.0035107266379824924)),
    "m_set": (0.11072402866983713, 0.11065101660747223, 0.1115119253789198,
              (0.003010429809821713, 0.0030147063437993347,
               0.003031732824507615)),
    "nu": (0.1111095571369322, 0.1107568831895067, 0.11158661505612615,
           (0.0031135385670245834, 0.0030930944084069365,
            0.003047506922112703)),
}
IDENTITY = {
    "uniform": (0.11214525770015721, 0.0030438380170392096),
    "grid": (0.1325319349608294, 0.0032493231377516045),
    "m_set": (0.11213613587937925, 0.0030413864069919003),
    "nu": (0.11223390077951947, 0.0030523937302399076),
}


def test_mc_chunks_sizes_and_one_stream():
    chunks = list(mc_chunks(10, 0, chunk=3))
    assert [m for _, m in chunks] == [3, 3, 3, 1]
    assert len({id(rng) for rng, _ in chunks}) == 1
    assert [m for _, m in mc_chunks(6, 0, chunk=3)] == [3, 3]


@pytest.mark.parametrize("samples", [0, -1])
def test_mc_chunks_refuses_empty_runs(samples):
    with pytest.raises(PermError, match="samples must be >= 1"):
        next(mc_chunks(samples, 0, chunk=3))


@pytest.mark.parametrize("name", sorted(MUS))
def test_hit_estimators_keep_their_seeded_streams(name):
    mu = MUS[name]
    est, _ = density_mc((1, 3, 2), mu, 20_000, 5)
    assert est == DENSITY_HITS[name] / 20_000
    est, _ = event_prob_mc(mu, (1, 3, 2), (2, 1, 3), 20_000, 5)
    assert est == EVENT_HITS[name] / 20_000


@pytest.mark.parametrize("name", sorted(MUS))
@pytest.mark.parametrize("k", [3, 4])
def test_pattern_histogram_keeps_its_seeded_stream(name, k):
    hist = pattern_histogram_mc(MUS[name], k, 6_000, 7)
    assert [hist[p] for p in sorted(hist)] == HISTOGRAMS[name, k]


@pytest.mark.parametrize("name", sorted(MUS))
def test_symmetry_mc_keeps_its_seeded_stream(name):
    v = symmetry_defect(MUS[name], 3, mode="mc", samples=6_000, seed=7)
    assert (v.defect, v.witness, v.error_radius) == SYMMETRY[name]
    assert [v.densities[p] for p in sorted(v.densities)] == \
        [c / 6_000 for c in HISTOGRAMS[name, 3]]


@pytest.mark.parametrize("name", sorted(MUS))
def test_mc_integrals_keep_their_seeded_streams(name):
    budget = Budget(samples=20_000, seed=3, mode="mc")
    rep = lemma_integrals(MUS[name], budget)
    assert (rep.i1, rep.i2, rep.i3, rep.error_radius) == LEMMA[name]
    rep = identity_check(MUS[name], budget)
    assert (rep.lhs, rep.error_radius) == IDENTITY[name]


def test_density_sampled_keeps_its_seeded_streams():
    # n <= 64 draws a random order per row; n > 64 draws with rejection
    est, ci = density_sampled(Perm((1, 3, 2)), TAU9, 20_000, 5)
    assert (est, ci) == (2696 / 20_000, 0.006220213381728311)
    est, ci = density_sampled(Perm((1, 3, 2)), TAU100, 20_000, 5)
    assert (est, ci) == (3546 / 20_000, 0.006956282299432452)


def test_runs_of_more_than_one_chunk_keep_their_streams():
    est, ci = density_sampled(Perm((2, 1)), TAU9, 1_000_003, 2)
    assert (est, ci) == (138810 / 1_000_003, 0.0008905857624842741)
    hist = pattern_histogram_mc(uniform(), 3, 1_000_003, 2)
    assert [hist[p] for p in sorted(hist)] == \
        [167220, 166583, 167149, 166434, 166615, 166002]
    rep = identity_check(MUS["m_set"], Budget(samples=2_000_003, seed=2, mode="mc"))
    assert (rep.lhs, rep.error_radius) == \
        (0.11137665582448027, 0.000303377758454243)


@pytest.mark.parametrize("samples", [0, -5])
def test_mc_estimators_refuse_bad_sample_counts(samples):
    mu = MUS["m_set"]
    with pytest.raises(PermError):
        pattern_histogram_mc(mu, 3, samples, 1)
    with pytest.raises(PermError):
        symmetry_defect(mu, 3, mode="mc", samples=samples, seed=1)
    with pytest.raises(PermError):
        event_prob_mc(mu, (1, 2), (2, 1), samples, 1)
    with pytest.raises(PermError):
        density_mc((1, 2), mu, samples, 1)
    with pytest.raises(PermError):
        density_sampled(Perm((1, 2)), TAU9, samples, 1)
