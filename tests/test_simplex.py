import numpy as np
import pytest
from scipy.optimize import linprog

import crflow.measure
from crflow.measure import DiscreteMeasure, flat_distance
from crflow.simplex import SimplexError, solve_lp
from crflow.space import build_grid

from oracles import dense_solve_lp, loop_flat_norm_lp

# Beale's LP: Dantzig's rule cycles on it from the all-slack basis, so the
# solver gets out only through its stall rule and Bland's rule.
BEALE = (
    [3 / 4, -150.0, 1 / 50, -6.0],
    [[1 / 4, -60.0, -1 / 25, 9.0], [1 / 2, -90.0, -1 / 50, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_textbook_problem():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    value, x = solve_lp(
        [3.0, 5.0],
        [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
        [4.0, 12.0, 18.0],
    )
    assert value == pytest.approx(36.0)
    assert x == pytest.approx([2.0, 6.0])


def test_origin_optimal():
    value, x = solve_lp([-1.0, -2.0], [[1.0, 1.0]], [5.0])
    assert value == 0.0
    assert np.all(x == 0.0)


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        solve_lp([1.0], [[-1.0]], [1.0])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_lp([1.0], [[1.0]], [-1.0])


def test_degenerate_problem_terminates():
    # many tight constraints at the origin
    n = 6
    A = []
    b = []
    for i in range(n):
        for j in range(n):
            if i != j:
                row = np.zeros(n)
                row[i] = 1.0
                row[j] = -1.0
                A.append(row)
                b.append(0.0)
    A.append(np.ones(n))
    b.append(1.0)
    value, x = solve_lp(np.ones(n), np.array(A), np.array(b))
    assert value == pytest.approx(1.0)


def test_matches_scipy_on_random_problems():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 8))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 2.0, m)
        c = rng.normal(size=n)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs")
        if not ref.success:
            # unbounded: our solver must say so too
            with pytest.raises(SimplexError):
                solve_lp(c, A, b)
            continue
        value, x = solve_lp(c, A, b)
        assert value == pytest.approx(-ref.fun, abs=1e-8)
        assert np.all(A @ x <= b + 1e-8)
        assert np.all(x >= -1e-12)


def outcome(solve, c, A, b):
    """The exact result: bits of the value and of x, or the error."""
    try:
        value, x = solve(c, A, b)
    except (SimplexError, ValueError) as exc:
        return "raised", type(exc).__name__, str(exc)
    return "solved", value.hex(), x.tobytes()


def random_lps(rng):
    m = int(rng.integers(1, 15))
    n = int(rng.integers(1, 10))
    return rng.normal(size=n), rng.normal(size=(m, n)), rng.uniform(0.0, 2.0, m)


def rounded_lps(rng):
    # small integers: ties in the reduced costs and in the ratio test
    m = int(rng.integers(1, 15))
    n = int(rng.integers(1, 10))
    c = rng.integers(-3, 4, n).astype(float)
    return c, rng.integers(-2, 3, (m, n)).astype(float), rng.integers(0, 3, m).astype(float)


def degenerate_lps(rng):
    if rng.random() < 0.5:
        m = int(rng.integers(2, 20))
        n = int(rng.integers(2, 10))
        b = np.zeros(m)
        b[rng.integers(0, m)] = 1.0
        c = rng.integers(-1, 3, n).astype(float)
        return c, rng.integers(-1, 2, (m, n)).astype(float), b
    # Beale's LP with extra zero-rhs rows and scaled rows; about 40 % of
    # these stall long enough to switch to Bland's rule.
    c, A, b = (np.array(v) for v in BEALE)
    extra = int(rng.integers(1, 4))
    A = np.vstack([A, rng.integers(-2, 3, (extra, 4))])
    b = np.concatenate([b, np.zeros(extra)])
    scale = rng.uniform(0.5, 2.0, b.size)
    return c, A * scale[:, None], b * scale


@pytest.mark.parametrize("family", [random_lps, rounded_lps, degenerate_lps])
def test_matches_dense_reference_bit_for_bit(family):
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(150):
        c, A, b = family(rng)
        expected = outcome(dense_solve_lp, c, A, b)
        assert outcome(solve_lp, c, A, b) == expected
        kinds.add(expected[0])
    assert kinds == {"raised", "solved"}


@pytest.mark.parametrize("dim, counts", [(1, [2]), (1, [3]), (1, [9]), (2, [2, 3]), (2, [3, 3])])
def test_flat_norm_lps_match_dense_reference(monkeypatch, dim, counts):
    lps = []

    def both(c, A, b):
        lps.append((c, A, b))
        expected = outcome(dense_solve_lp, c, A, b)
        assert outcome(solve_lp, c, A, b) == expected
        return solve_lp(c, A, b)

    monkeypatch.setattr(crflow.measure, "solve_lp", both)
    sp = build_grid(dim, [(0.0, 1.0)] * dim, counts)
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = rng.normal(size=(2, sp.size))
        if rng.random() < 0.5:
            w = np.round(w, 1)          # ties
        w[0, rng.random(sp.size) < 0.3] = 0.0
        lps.clear()
        flat_distance(DiscreteMeasure(sp, w[0]), DiscreteMeasure(sp, w[1]))
        # the vectorised assembly builds the row-by-row LP exactly
        (c, A, b), = lps
        for got, want in zip((c, A, b), loop_flat_norm_lp(w[0] - w[1], sp.metric)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_beale_cycling_lp():
    c, A, b = BEALE
    ref = linprog(-np.array(c), A_ub=A, b_ub=b, method="highs")
    value, x = solve_lp(c, A, b)
    assert -ref.fun == pytest.approx(1 / 20, abs=1e-12)
    assert value == pytest.approx(1 / 20, abs=1e-12)
    assert x == pytest.approx([1 / 25, 0.0, 1.0, 0.0], abs=1e-12)
    assert outcome(solve_lp, c, A, b) == outcome(dense_solve_lp, c, A, b)
