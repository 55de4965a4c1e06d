import numpy as np
import pytest
from scipy.optimize import linprog

import crflow.simplex as simplex
from crflow.measure import DiscreteMeasure, flat_distance
from crflow.simplex import PIVOT_TOL, SimplexError, solve_lp
from crflow.space import build_grid

from oracles import dense_solve_lp, flat_norm_highs, loop_flat_norm_lp, tableau_flat_norm

# Beale's LP, max c.x s.t. A x <= b: Dantzig's rule cycles on it from the
# all-slack basis, so the solver gets out only through its stall rule and
# Bland's rule.
BEALE = (
    [3 / 4, -150.0, 1 / 50, -6.0],
    [[1 / 4, -60.0, -1 / 25, 9.0], [1 / 2, -90.0, -1 / 50, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def standard_form(c, A, b):
    """min -c.x s.t. [A I] (x, s) = b from the slack basis, for max c.x, A x <= b."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    cost = np.concatenate([-np.asarray(c, dtype=float), np.zeros(m)])
    return cost, np.hstack([A, np.eye(m)]), np.asarray(b, dtype=float), np.arange(n, n + m)


def solve_max(c, A, b):
    """(max c.x, x) of max c.x s.t. A x <= b, x >= 0, by the revised simplex."""
    value, x, _ = solve_lp(*standard_form(c, A, b))
    return -value, x[:len(c)]


def test_textbook_problem():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    value, x = solve_max(
        [3.0, 5.0],
        [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
        [4.0, 12.0, 18.0],
    )
    assert value == pytest.approx(36.0)
    assert x == pytest.approx([2.0, 6.0])


def test_origin_optimal():
    value, x = solve_max([-1.0, -2.0], [[1.0, 1.0]], [5.0])
    assert value == 0.0
    assert np.all(x == 0.0)


def test_unbounded_detected():
    with pytest.raises(SimplexError, match="unbounded"):
        solve_max([1.0], [[-1.0]], [1.0])


def test_negative_rhs_rejected():
    # the slack basis of a negative right-hand side is infeasible
    with pytest.raises(ValueError, match="infeasible"):
        solve_max([1.0], [[1.0]], [-1.0])


def test_pivot_budget_exhausted(monkeypatch):
    monkeypatch.setattr(simplex, "_pivot_budget", lambda m, n: 1)
    with pytest.raises(SimplexError, match="exceeded 1 pivots"):
        solve_max([3.0, 5.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], [4.0, 12.0, 18.0])


@pytest.mark.parametrize("basis, error, match", [
    ([0, 0], ValueError, "distinct"),
    ([0, 5], ValueError, "distinct"),
    ([0, 1, 2], ValueError, "dimensions"),
    ([0, 1], SimplexError, "singular"),
])
def test_bad_starting_basis(basis, error, match):
    c = np.zeros(4)
    A = np.array([[1.0, 2.0, 1.0, 0.0], [2.0, 4.0, 0.0, 1.0]])
    with pytest.raises(error, match=match):
        solve_lp(c, A, [1.0, 2.0], basis)


@pytest.mark.parametrize("where", ["c", "A", "b"])
def test_non_finite_data_rejected(where):
    c, A, b, basis = standard_form([1.0, 1.0], [[1.0, 2.0]], [1.0])
    {"c": c, "A": A[0], "b": b}[where][0] = np.nan
    with pytest.raises(SimplexError, match="not finite"):
        solve_lp(c, A, b, basis)


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
    value, x = solve_max(np.ones(n), np.array(A), np.array(b))
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
                solve_max(c, A, b)
            continue
        value, x = solve_max(c, A, b)
        assert value == pytest.approx(-ref.fun, abs=1e-8)
        assert np.all(A @ x <= b + 1e-8)
        assert np.all(x >= -1e-12)


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
    # Beale's LP with extra zero-rhs rows and scaled rows
    c, A, b = (np.array(v) for v in BEALE)
    extra = int(rng.integers(1, 4))
    A = np.vstack([A, rng.integers(-2, 3, (extra, 4))])
    b = np.concatenate([b, np.zeros(extra)])
    scale = rng.uniform(0.5, 2.0, b.size)
    return c, A * scale[:, None], b * scale


@pytest.mark.parametrize("family", [random_lps, rounded_lps, degenerate_lps])
def test_families_match_highs(family):
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(150):
        lp = family(rng)
        c, A, b, basis = standard_form(*lp)
        ref = linprog(c, A_eq=A, b_eq=b, method="highs")
        assert ref.status in (0, 3)          # optimal or unbounded
        if ref.status == 3:
            with pytest.raises(SimplexError, match="unbounded"):
                solve_lp(c, A, b, basis)
            kinds.add("unbounded")
            continue
        value, x, y = solve_lp(c, A, b, basis)
        kinds.add("solved")
        assert value == pytest.approx(ref.fun, rel=1e-12, abs=1e-12)
        # x is a feasible vertex and y certifies it: dual feasible, no gap
        scale = max(1.0, np.abs(b).max())
        assert x.min() >= -1e-12 * scale
        assert np.abs(A @ x - b).max() <= 1e-12 * scale
        assert np.all(A.T @ y <= c + PIVOT_TOL)
        assert b @ y == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert kinds == {"unbounded", "solved"}


@pytest.mark.parametrize("dim, counts", [(1, [2]), (1, [3]), (1, [9]), (2, [2, 3]), (2, [3, 3])])
def test_flat_norm_lps_match_dense_reference(dim, counts):
    # the former primal LP is exact at these sizes, on the full tableau and
    # bit for bit on the condensed one
    sp = build_grid(dim, [(0.0, 1.0)] * dim, counts)
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = rng.normal(size=(2, sp.size))
        if rng.random() < 0.5:
            w = np.round(w, 1)          # ties
        w[0, rng.random(sp.size) < 0.3] = 0.0
        got = flat_distance(DiscreteMeasure(sp, w[0]), DiscreteMeasure(sp, w[1]))
        want = dense_solve_lp(*loop_flat_norm_lp(w[0] - w[1], sp.metric))[0]
        assert tableau_flat_norm(w[0] - w[1], sp.metric) == want
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its first argument's shape."""
    calls = []
    func = getattr(module, name)

    def counted(*args):
        calls.append(np.shape(args[0]))
        return func(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_beale_cycling_lp(monkeypatch):
    # with a fresh inversion after every pivot, inversions count pivots + 1
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", 1)
    factorizations = count_calls(monkeypatch, simplex.np.linalg, "inv")
    c, A, b = BEALE
    ref = linprog(-np.array(c), A_ub=A, b_ub=b, method="highs")
    value, x = solve_max(c, A, b)
    assert -ref.fun == pytest.approx(1 / 20, abs=1e-12)
    assert value == pytest.approx(1 / 20, abs=1e-12)
    assert x == pytest.approx([1 / 25, 0.0, 1.0, 0.0], abs=1e-12)
    # Dantzig's rule stalled for more than m + 10 = 13 pivots before
    # Bland's rule took over and reached the optimum
    assert len(factorizations) > 3 + 10 + 1


def test_optimum_is_declared_on_a_fresh_inverse(monkeypatch):
    # no refactorization in between: one inversion at the start and one
    # before optimality is declared, however many eta updates came between
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", 10**9)
    inversions = count_calls(monkeypatch, simplex.np.linalg, "inv")
    updates = count_calls(monkeypatch, simplex.np, "outer")
    sp = build_grid(2, [(0.0, 1.0)] * 2, [5, 5])
    rng = np.random.default_rng(13)
    w = rng.random((2, sp.size))
    got = flat_distance(DiscreteMeasure(sp, w[0]), DiscreteMeasure(sp, w[1]))
    assert len(updates) > 1
    assert len(inversions) == 2
    assert got == pytest.approx(flat_norm_highs(w[0] - w[1], sp.metric), rel=1e-12)
