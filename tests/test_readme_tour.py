"""README's library tour, run as written, with every commented value pinned."""

import ast
import re
from fractions import Fraction
from pathlib import Path

from permutons import DEFAULT_SEED, all_patterns, pattern_histogram_mc, t_id3_segment

README = Path(__file__).resolve().parents[1] / "README.md"

# each expression statement of the tour, by its source text, and the check
# its comment states
EXPRESSIONS = {
    "density_exact(Perm((1, 2, 3)), tau)": lambda v: v == Fraction(2, 21),
    "all_densities(3, tau).defect": lambda v: v == Fraction(1, 14),
    # exact: 16 of the 81 cells of the 9 x 9 grid, no interval slack
    "discrepancy(tau).value": lambda v: v == 16 / 81,
    "density_exact_grid(Perm((1, 2)), mu)": lambda v: v == Fraction(1, 4),
    "symmetry_defect(mu, 2).defect": lambda v: v == Fraction(1, 4),
    "is_inflatable(Perm((2, 4, 1, 3)), 2)": lambda v: v[0] is True,
    "search_inflatable(9, 3)": lambda v: v == [],
    "lemma_integrals(uniform())":
        lambda v: v.i1 == v.i2 == v.i3 == Fraction(1, 9),
    "cs_chain(uniform()).slacks": lambda v: all(s == 0 for s in v.values()),
    # ~0.067 is the value rounded to three decimals
    "discrepancy_permuton(mu_b, 400).lower": lambda v: abs(v - 0.067) <= 0.0005,
}


def _tour() -> str:
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_readme_tour_runs_as_commented():
    source = _tour()
    ns: dict = {}
    seen = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            text = ast.get_source_segment(source, node)
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), ns)
            assert EXPRESSIONS[text](value), (text, value)
            seen.append(text)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
    assert sorted(seen) == sorted(EXPRESSIONS)

    # the two commented assignments: b = 3083/6400, and t(pi, mu_b) ~ 1/6 for
    # all |pi| = 3: t(123) exactly within find_b's tol 1e-5, every pattern
    # within 0.01 in 60,000 seeded draws (about six standard deviations)
    assert ns["r"].value == Fraction(3083, 6400)
    assert abs(t_id3_segment(ns["r"].value) - Fraction(1, 6)) <= 1e-5
    draws = 60_000
    hist = pattern_histogram_mc(ns["mu_b"], 3, draws, DEFAULT_SEED)
    assert list(hist) == all_patterns(3)
    for pi, count in hist.items():
        assert abs(count / draws - 1 / 6) <= 0.01, (pi, count)
