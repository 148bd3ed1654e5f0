from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from permutons import Perm

# fixed example sequences: every run draws the same hypothesis examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

FIXTURES = Path(__file__).parent / "fixtures"

# two order-9 near misses with 3-profile (8,17,17,17,17,8), not grid-3-symmetric:
# occ(12) = 18 breaks the order-9 congruence occ(12) = 0 (mod 4), and the exact
# 3-symmetry defect is 2/81.  The order-9 pair with all six 3-counts equal
# (14 each) is 349852167 / 761258943.
BALANCED_9 = (
    Perm((4, 3, 8, 9, 5, 1, 2, 7, 6)),
    Perm((4, 7, 2, 9, 5, 1, 8, 3, 6)),
)


@pytest.fixture
def rng():
    return np.random.default_rng(991)


def random_perm(rng, n: int) -> Perm:
    return Perm(tuple(int(v) + 1 for v in rng.permutation(n)))
