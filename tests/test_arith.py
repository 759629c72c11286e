from math import comb, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauforms import QSeries
from tauforms.arith import (
    ONE,
    ZERO,
    InconsistentSystem,
    Rat,
    _integer_column,
    as_rat,
    bernoulli,
    binomial,
    pochhammer,
    rat_str,
    solve_exact,
)

rationals = st.builds(
    lambda n, d: Rat(n, d), st.integers(-10**6, 10**6), st.integers(1, 10**4)
)


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Rat(1, 6)
    assert bernoulli(4) == Rat(-1, 30)
    assert bernoulli(12) == Rat(-691, 2730)


def test_bernoulli_rejects_odd():
    with pytest.raises(ValueError, match="odd-index Bernoulli"):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_bernoulli_recurrence():
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 for 1 <= n <= 30 (odd B beyond B1 are zero)
    def b(j):
        if j == 1:
            return Rat(-1, 2)
        if j % 2 == 1:
            return Rat(0)
        return bernoulli(j)

    for n in range(1, 31):
        assert sum(comb(n + 1, j) * b(j) for j in range(n + 1)) == 0


def test_eisenstein_prefactors():
    # 2k/B_k for the weights in play; only k = 12 is non-integral
    expected = {
        2: Rat(24),
        4: Rat(-240),
        6: Rat(504),
        8: Rat(-480),
        10: Rat(264),
        12: Rat(-65520, 691),
        14: Rat(24),
    }
    for k, val in expected.items():
        assert Rat(2 * k) / bernoulli(k) == val
        if k != 12:
            assert val.denominator == 1
    assert expected[12].denominator != 1


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(8, 3) == 56
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0


@given(st.integers(0, 40), st.integers(-5, 45))
def test_binomial_pascal(n, k):
    assert binomial(n + 1, k) == binomial(n, k) + binomial(n, k - 1)


def test_pochhammer_values():
    assert pochhammer(3, 0) == 1
    assert pochhammer(2, 3) == 24
    assert pochhammer(8, 2) == 72
    assert pochhammer(-2, 3) == 0  # crosses zero


@given(st.integers(1, 30), st.integers(0, 8))
def test_pochhammer_is_factorial_ratio(a, m):
    from math import factorial

    assert pochhammer(a, m) == factorial(a + m - 1) // factorial(a - 1)


@given(rationals, rationals, rationals)
def test_rat_field_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)


@given(rationals)
def test_rat_string_roundtrip(x):
    assert Rat(rat_str(x)) == x


def test_rat_lowest_terms():
    r = Rat(6, 4)
    assert r.numerator == 3 and r.denominator == 2
    assert Rat(-6, 4).denominator == 2  # denominator stays positive
    assert rat_str(Rat(-6, 4)) == "-3/2"


def test_as_rat_refuses_floats():
    with pytest.raises(TypeError):
        as_rat(0.5)


def test_solve_exact_and_inconsistency():
    cols = [[1, 0, 2], [0, 1, 3]]
    assert solve_exact(cols, [5, 7, 31]) == [5, 7]
    with pytest.raises(InconsistentSystem):
        solve_exact(cols, [5, 7, 30])


def test_solve_exact_widens_its_window_and_checks_every_row():
    # The columns agree on their first 20 rows, so the first windows (8 and
    # 16 rows) have rank 1; rank 3 shows only from row 20 on.
    cols = [[1] * 40, [1] * 20 + list(range(20)), [1] * 20 + [i * i for i in range(20)]]
    target = [sum(c * x for c, x in zip(row, (2, Rat(-1, 3), 5))) for row in zip(*cols)]
    assert solve_exact(cols, target) == [2, Rat(-1, 3), 5]
    with pytest.raises(InconsistentSystem, match="residual at row 39"):
        solve_exact(cols, target[:-1] + [target[-1] + 1])
    with pytest.raises(ValueError, match="linearly dependent"):
        solve_exact([[1] * 40, [2] * 40, [1] * 20 + [0] * 20], [0] * 40)


def test_solve_exact_checks_rational_rows_exactly():
    # Columns, target and solution all carry denominators, so the integer row
    # check needs every scale factor; a change of 10^-30 in the last row shows.
    cols = [[Rat(1, 7)] * 40, [Rat(i, 6) for i in range(40)], [Rat(i * i, 5) for i in range(40)]]
    sol = [2, Rat(-1, 3), Rat(5, 11)]
    target = [sum(c * x for c, x in zip(row, sol)) for row in zip(*cols)]
    assert solve_exact(cols, target) == sol
    with pytest.raises(InconsistentSystem, match="residual at row 39"):
        solve_exact(cols, target[:-1] + [target[-1] + Rat(1, 10**30)])


def test_solve_exact_takes_integer_columns_as_they_are():
    # A column with integer numerators over one denominator (a QSeries) gives
    # the same solution and the same row check as its rational entries.
    cols = [QSeries([Rat(1, 7)] * 40), QSeries([Rat(i, 6) for i in range(40)]), QSeries([Rat(i * i, 5) for i in range(40)])]
    sol = [2, Rat(-1, 3), Rat(5, 11)]
    target = QSeries([sum(c * x for c, x in zip(row, sol)) for row in zip(*(c.coeffs for c in cols))])
    assert solve_exact(cols, target) == solve_exact([list(c.coeffs) for c in cols], list(target.coeffs)) == sol
    off = QSeries(list(target.coeffs[:-1]) + [target[39] + Rat(1, 10**30)])
    with pytest.raises(InconsistentSystem, match="residual at row 39"):
        solve_exact(cols, off)


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form over Rat; returns (matrix, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    piv = 0
    pivots = []
    for col in range(ncols):
        if piv >= len(rows):
            break
        r = next((i for i in range(piv, len(rows)) if rows[i][col] != 0), None)
        if r is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        inv = ONE / rows[piv][col]
        rows[piv] = [x * inv for x in rows[piv]]
        for i in range(len(rows)):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
        pivots.append(col)
        piv += 1
    return rows, pivots


def solve_by_rref(columns: list, target) -> list:
    """The reference solver: ``solve_exact``'s window, messages and row check,
    with the elimination done by ``rref`` over ``Fraction``s."""
    k = len(columns)
    ints, dens = zip(*map(_integer_column, (*columns, target)))
    nrows = len(ints[k])
    window = 2 * k + 2
    while True:
        rows = min(window, nrows)
        aug = [[Rat(ints[j][i], dens[j]) for j in range(k + 1)] for i in range(rows)]
        aug, pivots = rref(aug)
        if k in pivots:
            raise InconsistentSystem("target not in span")
        if len(pivots) == k or rows == nrows:
            break
        window *= 2
    if len(pivots) < k:
        raise ValueError("columns are linearly dependent")
    sol = [ZERO] * k
    for i, col in enumerate(pivots):
        sol[col] = aug[i][k]
    big = lcm(*dens)
    s = lcm(*(x.denominator for x in sol))
    weights = [x.numerator * (s // x.denominator) * (big // d) for x, d in zip(sol, dens)]
    t_scale = s * (big // dens[k])
    for i, row in enumerate(zip(*ints)):
        if sum(w * c for w, c in zip(weights, row)) != t_scale * row[k]:
            raise InconsistentSystem(f"residual at row {i}")
    return sol


_entry = st.one_of(
    st.integers(-9, 9),
    st.builds(Rat, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Rat, st.integers(-(10**12), 10**12), st.sampled_from((1, 7, 691, 2**61 - 1))),
)


@st.composite
def _systems(draw):
    """k <= 6 columns and a target: integer and rational entries, dependent
    columns, inconsistent targets, and leading rows that repeat a few
    patterns, so the first 2k+2 rows can be rank-deficient."""
    k = draw(st.integers(1, 6))
    nrows = draw(st.integers(k, 4 * k + 8))
    row = st.lists(_entry, min_size=k, max_size=k)
    patterns = draw(st.lists(row, min_size=1, max_size=k))
    lead = draw(st.integers(0, nrows))
    rows = [patterns[i % len(patterns)] if i < lead else draw(row) for i in range(nrows)]
    cols = [list(c) for c in zip(*rows)]
    if k > 1 and draw(st.booleans()):  # one column a combination of the others
        j = draw(st.integers(0, k - 1))
        mix = draw(st.lists(_entry, min_size=k, max_size=k))
        cols[j] = [sum(as_rat(m) * as_rat(r[i]) for i, m in enumerate(mix) if i != j) for r in rows]
    x = draw(st.lists(_entry, min_size=k, max_size=k))
    target = [sum(as_rat(a) * as_rat(b) for a, b in zip(x, r)) for r in zip(*cols)]
    kind = draw(st.sampled_from(("consistent", "perturbed", "free")))
    if kind == "perturbed":
        target[draw(st.one_of(st.just(nrows - 1), st.integers(0, nrows - 1)))] += draw(_entry.filter(lambda v: v != 0))
    elif kind == "free":
        target = draw(st.lists(_entry, min_size=nrows, max_size=nrows))
    return cols, target


def _outcome(solve, cols, target):
    try:
        sol = solve(cols, target)
    except ValueError as exc:
        return type(exc), str(exc)
    assert all(type(v) is Rat for v in sol)
    return sol


@settings(max_examples=200)
@given(_systems())
@example(([[1] * 40, [1] * 20 + list(range(20)), [1] * 20 + [i * i for i in range(20)]], [3] * 20 + [3 + i for i in range(20)]))
@example(([[0] * 9, [1] * 9], [2] * 9))
@example(([[Rat(1, 3)] * 5 + [1], [Rat(2, 3)] * 5 + [Rat(5, 7)]], [1] * 6))
def test_solve_exact_matches_the_fraction_reference(system):
    cols, target = system
    assert _outcome(solve_exact, cols, target) == _outcome(solve_by_rref, cols, target)
