import random

from stringology.oracles import brute_force_sat
from stringology.twosat import TwoSatFormula, check_assignment, two_sat_solve


def test_forced_contradiction():
    f = TwoSatFormula(1, (((0, True), (0, True)), ((0, False), (0, False))))
    assert two_sat_solve(f) is None


def test_empty_formula():
    f = TwoSatFormula(3, ())
    vals = two_sat_solve(f)
    assert vals is not None and len(vals) == 3
    assert check_assignment(f, [False, False, False])


def test_implication_chain():
    # (x0 -> x1) and (x1 -> x2) and x0: all must be true
    f = TwoSatFormula(
        3,
        (
            ((0, False), (1, True)),
            ((1, False), (2, True)),
            ((0, True), (0, True)),
        ),
    )
    vals = two_sat_solve(f)
    assert vals == [True, True, True]


def test_random_formulas_match_truth_tables():
    rng = random.Random(2)
    for _ in range(200):
        nv = rng.randint(1, 12)
        clauses = tuple(
            (
                (rng.randrange(nv), rng.random() < 0.5),
                (rng.randrange(nv), rng.random() < 0.5),
            )
            for _ in range(rng.randint(0, 30))
        )
        f = TwoSatFormula(nv, clauses)
        got = two_sat_solve(f)
        want = brute_force_sat(f)
        assert (got is None) == (want is None)
        if got is not None:
            assert check_assignment(f, got)
