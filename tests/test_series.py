import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cosetchar import coset, series
from cosetchar.affine import h_alpha_beta
from cosetchar.minimal import KacLabel, MinimalModel
from cosetchar.series import (
    FracSeries,
    _euler,
    equal_through,
    euler_product,
    monomial,
    theta_null,
    weighted_theta,
)

F = Fraction


# --- independent oracles -------------------------------------------------

def series_from_terms(terms, bound):
    """Series from (exponent, coefficient) pairs, exact below bound, over Fraction exponents.

    The lattice denominator is the lcm of the exponent denominators and the
    bound's, so every term sits on an integer slot; duplicate exponents are
    summed, each sum is stored as an int (ValueError when one is not
    integral), and ``reduced`` moves the result to the coarsest lattice.
    """
    bound = F(bound)
    kept = [(F(e), F(c)) for e, c in terms if F(e) < bound]
    d = lcm(bound.denominator, *(e.denominator for e, _ in kept))
    order = bound.numerator * (d // bound.denominator)
    acc = {}
    for e, c in kept:
        p = e.numerator * (d // e.denominator)
        acc[p] = acc.get(p, 0) + c
    if any(c.denominator != 1 for c in acc.values()):
        raise ValueError("series coefficients must be integers")
    pairs = [(p, c.numerator) for p, c in acc.items()]
    return FracSeries._from_terms(d, order, pairs).reduced()


@cache
def partition_count(n, max_part=None):
    """Count partitions of n by explicit enumeration over largest parts."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, min(n, max_part) + 1))


@cache
def distinct_partition_count(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(
        distinct_partition_count(n - k, k - 1) for k in range(1, min(n, max_part) + 1)
    )


def poly_product_coeffs(n_factors, bound, sign=-1, power=1):
    """Expand prod (1 + sign q^m)^power with plain integer lists."""
    acc = [0] * (bound + 1)
    acc[0] = 1
    for m in range(1, n_factors + 1):
        for _ in range(power):
            new = list(acc)
            for pos, c in enumerate(acc):
                if c and pos + m <= bound:
                    new[pos + m] += sign * c
            acc = new
    return acc


# --- monomial ------------------------------------------------------------

def test_monomial_single_term():
    s = monomial(1, -1, 30, 40)
    assert list(s.nonzero_terms()) == [(F(-1, 30), F(1))]
    assert s.order_exponent == F(39, 30)


def test_monomial_zero_series():
    s = monomial(0, 0, 1, 10)
    assert not s.terms
    assert s.order == 10


def test_monomial_eta_prefactor():
    s = monomial(1, 1, 24, 5)
    assert s.leading_term() == (F(1, 24), F(1))


# --- add -----------------------------------------------------------------

def test_add_rescales_to_common_lattice():
    s = monomial(1, 1, 2, 4) + monomial(1, 1, 3, 4)
    assert s.den == 6
    assert s.coeff(1, 3) == 1
    assert s.coeff(1, 2) == 1
    assert s.coeff(5, 12) == 0


def test_add_zero_is_identity():
    s = monomial(3, 2, 5, 6)
    z = monomial(0, 0, 1, 50)
    assert s + z == s


def test_add_cancellation():
    one_plus_q = FracSeries(1, 0, [1, 1])
    one_minus_q = FracSeries(1, 0, [1, -1])
    total = one_plus_q + one_minus_q
    assert list(total.nonzero_terms()) == [(F(0), F(2))]


# --- mul -----------------------------------------------------------------

def test_mul_binomial_square():
    s = monomial(1, -1, 30, 70) + monomial(5, 29, 30, 40)  # q^(-1/30) * (1 + 5q)
    sq = s * s
    assert sq.coeff(-1, 15) == 1
    assert sq.coeff(F(-1, 15) + 1) == 10
    assert sq.coeff(F(-1, 15) + 2) == 25


def test_mul_by_zero_absorbs():
    s = monomial(2, 1, 3, 10)
    z = monomial(0, 0, 1, 10)
    assert not (s * z).terms


def test_mul_inverse_euler_factors():
    n = 25
    a = euler_product(-1, 1, n)
    b = euler_product(-1, -1, n)
    prod = a * b
    assert prod.coeff(0) == 1
    for k in range(1, n + 1):
        assert prod.coeff(k) == 0


def test_mul_tracks_exact_order():
    # unknown tail of one factor must clip the product's claimed exactness
    a = FracSeries(1, 0, [1, 1, 1])       # exact below q^3
    b = FracSeries(1, 2, [1, 0, 0, 0])    # q^2, exact below q^6
    prod = a * b
    assert prod.order_exponent == F(5)    # min(3 + 2, 6 + 0)
    assert [prod.coeff(k) for k in range(2, 5)] == [1, 1, 1]
    # a's unknown tail times b's leading q^2 pollutes at 3 + 2, not before
    short = a * FracSeries(1, 2, [1])     # b exact only below q^3
    assert short.order_exponent == F(3)   # clipped by 3 + 0


def test_series_slots_cannot_be_assigned_or_deleted():
    # a cached character is shared by every caller in a process
    model = MinimalModel(10, 7)
    cached = model.character(KacLabel(1, 1), 5)
    for s in (monomial(1, -1, 30, 40), FracSeries(2, -1, [1, 0, 3]),
              FracSeries.loads(cached.dumps()), cached):
        before = (s.den, s.lowest, s.order, s.terms)
        for slot in ("den", "lowest", "order", "terms"):
            with pytest.raises(AttributeError):
                setattr(s, slot, getattr(s, slot))
            with pytest.raises(AttributeError):
                delattr(s, slot)
        assert (s.den, s.lowest, s.order, s.terms) == before
    assert model.character(KacLabel(1, 1), 5) is cached


@pytest.mark.parametrize("bad", [F(1, 2), F(4, 2), 0.5, 2.0, "3", "1/1"])
def test_non_integer_coefficient_or_scalar_is_refused(bad):
    s = FracSeries(2, -1, [1, 0, 3])
    with pytest.raises(TypeError):
        FracSeries(2, -1, [1, bad])
    with pytest.raises(TypeError):
        monomial(bad, 0, 1, 3)
    with pytest.raises(TypeError):
        s * bad
    with pytest.raises(TypeError):
        bad * s
    assert s * 2 == 2 * s == FracSeries(2, -1, [2, 0, 6])
    assert -s == s * -1 == FracSeries(2, -1, [-1, 0, -3])


# integral values that are not ints: int() would read each as 2
_INTEGRAL_NON_INTS = [2.0, F(2), Decimal(2), "2"]


@pytest.mark.parametrize("build", [
    lambda: FracSeries(2.5, 0, [1]),
    lambda: FracSeries(2, 0.7, [1, 2]),
    lambda: FracSeries(F(2), 0, [1]),
    lambda: monomial(1, 0.5, 2, 3),
    lambda: monomial(1, 1, 2.0, 3),
    lambda: monomial(1, 1, 2, 3.0),
    lambda: monomial(1, F(1), 2, 3),
    *[lambda bad=bad: theta_null(bad, 1, 3) for bad in _INTEGRAL_NON_INTS],
    *[lambda bad=bad: theta_null(1, bad, 3) for bad in _INTEGRAL_NON_INTS],
    *[lambda bad=bad: weighted_theta(bad, 1, 1, 3) for bad in _INTEGRAL_NON_INTS],
    *[lambda bad=bad: weighted_theta(4, bad, 1, 3) for bad in _INTEGRAL_NON_INTS],
], ids=["den", "lowest", "den-fraction", "num", "monomial-den", "order_terms", "num-fraction",
        *[f"{f}-{arg}-{type(bad).__name__}" for f in ("theta_null", "weighted_theta")
          for arg in "ab" for bad in _INTEGRAL_NON_INTS]])
def test_non_integer_position_is_refused(build):
    # int() would truncate these, to a different series than asked for
    with pytest.raises(TypeError):
        build()


_EXACT = FracSeries(2, -1, [1, 0, 3, 0, 5, 0, 7, 0, 9])


@pytest.mark.parametrize("call", [
    lambda x: _EXACT.coeff(x),
    lambda x: _EXACT.coeff_row(x, 2),
    lambda x: equal_through(_EXACT, _EXACT, x),
    lambda x: theta_null(1, 1, x),
    lambda x: weighted_theta(4, 1, x, 3),
    lambda x: weighted_theta(4, 1, 2, x),
    lambda x: h_alpha_beta(1, 2, x),
], ids=["coeff", "coeff_row", "equal_through", "theta_null-order", "weighted_theta-c",
        "weighted_theta-order", "h_alpha_beta-t"])
@pytest.mark.parametrize("bad", ["1", "3/2", 0.1, 2.0, Decimal("1.5")])
def test_exponents_and_bounds_must_be_exact(call, bad):
    # Fraction(x) would read these, each as some nearby rational
    with pytest.raises(TypeError):
        call(bad)
    call(F(3, 2))
    call(2)


def test_json_load_refuses_non_integral_coefficient():
    blob = {"denominator": 2, "lowest": -1, "coeffs": ["3/1", "1/2"], "order": 1}
    with pytest.raises(ValueError):
        FracSeries.from_json_dict(blob)
    with pytest.raises(ValueError):
        FracSeries.loads(json.dumps(blob))
    s = FracSeries.from_json_dict({**blob, "coeffs": ["3/1", "4/2"]})
    assert s.terms == ((-1, 3), (0, 2)) and all(type(c) is int for _, c in s.terms)
    # a position field that is not an integer is refused, not truncated
    for field in ("denominator", "lowest", "order"):
        with pytest.raises(TypeError):
            FracSeries.from_json_dict({**blob, "coeffs": ["3/1"], field: 1.5})


@pytest.mark.parametrize(
    "bad", ["1e3", "2.0", " 7/1 ", "7/1\n", "1_000/1", "\u0663", "3/0", "1e99999999"], ids=repr)
def test_json_load_reads_only_integer_or_num_den_coefficients(bad):
    # Fraction reads most of these strings, 1e99999999 by building
    # 10**99999999; the parser refuses each before parsing it
    blob = json.dumps({"denominator": 1, "lowest": 0, "coeffs": ["1/1", bad], "order": 2})
    start = time.perf_counter()
    with pytest.raises(ValueError):
        FracSeries.loads(blob)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("bad", [3, 3.0, None], ids=repr)
def test_json_load_refuses_a_coefficient_that_is_not_a_string(bad):
    with pytest.raises(TypeError):
        FracSeries.loads(json.dumps({"denominator": 1, "lowest": 0, "coeffs": [bad], "order": 1}))


@pytest.mark.parametrize("coeffs", ["12", "1/1", {"0": "1/1"}, 12, None], ids=repr)
def test_json_load_refuses_coeffs_that_are_not_an_array(coeffs):
    # a string was read as a list of one-digit coefficients: "12" as 1 + 2q
    with pytest.raises(TypeError):
        FracSeries.loads(json.dumps({"denominator": 1, "lowest": 0, "coeffs": coeffs, "order": 2}))


@pytest.mark.parametrize("field", ["denominator", "lowest", "order"])
def test_json_load_refuses_a_boolean_integer_field(field):
    # Python reads a JSON true as 1: a denominator true loaded as den 1, a
    # lowest true as a term at q^1
    d = {"denominator": 1, "lowest": 0, "coeffs": ["1/1"], "order": 3, field: True}
    with pytest.raises(TypeError, match=f"series {field} must be an integer"):
        FracSeries.loads(json.dumps(d))


# --- euler_product ---------------------------------------------------------

def test_euler_product_partition_numbers():
    s = euler_product(-1, -1, 30)
    for n in range(31):
        assert s.coeff(n) == partition_count(n), n


def test_euler_product_distinct_partitions():
    s = euler_product(1, 1, 20)
    for n in range(21):
        assert s.coeff(n) == distinct_partition_count(n), n


def test_euler_product_pentagonal_signs():
    s = euler_product(-1, 1, 15)
    expected = poly_product_coeffs(15, 15, sign=-1, power=1)
    assert [s.coeff(n) for n in range(16)] == expected
    assert expected[:13] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


@pytest.mark.parametrize("kind", [float, F, str])
@pytest.mark.parametrize("position", range(3))
def test_euler_product_refuses_non_integer_arguments(position, kind):
    # 3.0 and Fraction(3) hash like 3: checked before the cached recurrence
    # is read, cold and after the same call with ints
    args = [-1, 3, 4]
    bad = [*args[:position], kind(args[position]), *args[position + 1 :]]
    _euler.cache_clear()
    with pytest.raises(TypeError):
        euler_product(*bad)
    euler_product(*args)
    with pytest.raises(TypeError):
        euler_product(*bad)


@pytest.mark.parametrize("exponent", [0.5, F(1, 2)], ids=repr)
def test_euler_product_refuses_a_fractional_exponent(exponent):
    with pytest.raises(TypeError):
        euler_product(-1, exponent, 4)


def test_euler_product_negative_cube():
    s = euler_product(-1, -3, 12)
    p = euler_product(-1, 1, 12)
    inv = p * p * p
    assert (s * inv).coeff(0) == 1
    for k in range(1, 13):
        assert (s * inv).coeff(k) == 0


# --- theta sums ------------------------------------------------------------

def test_theta_null_lowest_exponents():
    s = theta_null(70, 53, 40)
    terms = list(s.nonzero_terms())
    assert terms[0] == (F(2809, 280), F(1))
    assert terms[1] == (F(7569, 280), F(1))
    assert terms[1][0] - terms[0][0] == 17


def test_theta_null_small_offset():
    s = theta_null(70, 3, 20)
    assert s.leading_term() == (F(9, 280), F(1))


@given(a=st.integers(1, 40), b=st.integers(-100, 100))
@settings(max_examples=60, deadline=None)
def test_theta_null_reflection_symmetry(a, b):
    assert theta_null(a, b, 25) == theta_null(a, -b, 25)


def test_theta_null_enlarging_bound_adds_nothing_in_range():
    small = theta_null(70, 53, 30)
    large = theta_null(70, 53, 120)
    assert (small.den, small.lowest, small.order_exponent) == (large.den, large.lowest, 30)
    assert small.terms == tuple(t for t in large.terms if t[0] < small.order)
    assert small != large  # same terms below q^30, but different exactness bounds


@given(a=st.integers(1, 30), b=st.integers(-60, 60), bound=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_theta_null_m_scan_matches_wide_brute_force(a, b, bound):
    # oracle: a huge fixed m window; the adaptive scan must find the same terms
    expected = {}
    for m in range(-300, 301):
        e = F((2 * a * m + b) ** 2, 4 * a)
        if e < bound:
            expected[e] = expected.get(e, 0) + 1
    s = theta_null(a, b, bound)
    assert {e: c for e, c in s.nonzero_terms()} == {
        e: F(c) for e, c in expected.items() if c
    }
    _assert_coarsest_lattice_and_bound(s, expected, bound)


def _assert_coarsest_lattice_and_bound(s, expected, bound):
    """den is the lcm of the nonzero exponents' denominators; exact exactly below bound."""
    assert s.den == lcm(1, *(e.denominator for e, v in expected.items() if v))
    assert s.order_exponent == bound


@given(
    a=st.integers(1, 30),
    b=st.integers(-60, 60),
    c=st.sampled_from([F(3, 2), F(1, 8), F(2, 5), F(7, 8), F(1), F(5, 3), F(9, 4)]),
    bound=st.integers(1, 40),
)
@settings(max_examples=60, deadline=None)
def test_weighted_theta_m_scan_matches_wide_brute_force(a, b, c, bound):
    expected = {}
    for m in range(-300, 301):
        e = c * (a * m + b) ** 2 / a**2
        if e < bound:
            expected[e] = expected.get(e, 0) + (a * m + b)
    s = weighted_theta(a, b, c, bound)
    assert {e: cf for e, cf in s.nonzero_terms()} == {
        e: F(v) for e, v in expected.items() if v
    }
    _assert_coarsest_lattice_and_bound(s, expected, bound)


def test_weighted_theta_term_values():
    s = weighted_theta(14, 1, F(7, 2), 10)
    assert s.coeff(1, 56) == 1
    assert s.coeff(169, 56) == -13
    t = weighted_theta(10, 1, F(5, 2), 10)
    assert t.leading_term() == (F(1, 40), F(1))


def test_weighted_theta_zero_offset_cancels():
    s = weighted_theta(6, 0, F(3, 2), 30)
    assert not s.terms


def _theta_reference(a, b, c, bound):
    """theta_null (c None) or weighted_theta as series_from_terms over Fraction exponents."""
    if c is None:
        terms = [(F((2 * a * m + b) ** 2, 4 * a), 1) for m in range(-30, 31)]
    else:
        terms = [(F(c) * (a * m + b) ** 2 / a**2, a * m + b) for m in range(-30, 31)]
    return series_from_terms([(e, w) for e, w in terms if e < bound], bound)


def test_theta_integer_positions_match_fraction_route():
    # the integer lattice build gives the same den, lowest, order, terms and
    # coefficient types as series_from_terms, also with Fraction bounds and
    # with a first slot whose weights n and -n cancel
    def key(s):
        return s.den, s.lowest, s.order, s.terms, [type(v) for _, v in s.terms]

    cancelled = 0
    for a in range(1, 7):
        for b in range(-2 * a, 2 * a + 1):
            for bound in (1, F(7, 3), F(5, 2), F(41, 6), 9):
                assert key(theta_null(a, b, bound)) == key(_theta_reference(a, b, None, bound))
                for c in (1, F(1, 2), F(5, 3)):
                    got = weighted_theta(a, b, c, bound)
                    assert key(got) == key(_theta_reference(a, b, c, bound)), (a, b, c, bound)
                    first = min(F(c) * (a * m + b) ** 2 / a**2 for m in range(-30, 31))
                    cancelled += first < bound and got.coeff(first) == 0
    assert cancelled


# --- coefficient extraction -------------------------------------------------

def test_coeff_out_of_range_raises():
    s = monomial(1, 0, 1, 5)
    with pytest.raises(ValueError):
        s.coeff(5)
    with pytest.raises(ValueError):
        s.coeff(11, 2)
    assert s.coeff(9, 2) == 0


def test_coeff_off_lattice_is_zero():
    s = monomial(7, 1, 2, 4)
    assert s.coeff(1, 3) == 0
    assert s.coeff(1, 2) == 7


def test_coeff_row_bound_and_lattice():
    s = FracSeries(2, -1, [1, 0, 3, 0, 5])  # q^(-1/2) + 3 q^(1/2) + 5 q^(3/2), exact below q^2
    assert s.coeff_row(F(-1, 2), 2) == (1, 3)
    assert s.coeff_row(F(-1, 2), 3) == (1, 3, 5)  # last exponent 3/2, one step below the bound
    with pytest.raises(ValueError):
        s.coeff_row(F(0), 3)                      # last exponent 2 is the bound itself
    assert s.coeff_row(F(1, 3), 1) == (0,)        # off the lattice
    assert s.coeff_row(F(-5, 2), 3) == (0, 0, 1)  # below lowest
    assert s.coeff_row(7, 0) == ()                # nothing asked, nothing unknown
    with pytest.raises(ValueError):
        s.coeff_row(0, -1)


def _coeff_row_or_error(s, start, count):
    try:
        return s.coeff_row(start, count)
    except ValueError:
        return ValueError


def _coeffs_or_error(s, start, count):
    """Coefficients of q^(start + k) looked up in the stored terms, not via coeff_row."""
    terms = dict(s.terms)
    out = []
    for k in range(count):
        pos = (F(start) + k) * s.den
        if pos >= s.order:
            return ValueError
        out.append(terms.get(pos.numerator, 0) if pos.denominator == 1 else 0)
    return tuple(out)


def test_coeff_row_matches_coeff_on_a_grid():
    dense = theta_null(3, 1, 6) * euler_product(-1, -2, 8)  # den 12, exact below q^6
    for s in (dense, dense * -3, FracSeries(5, -7, [0, 2, 0, 0, 0, 0, -1])):
        lo = s.lowest // s.den - 2
        top = s.order // s.den + 2
        for num in range(lo * 60, top * 60):
            start = F(num, 60)  # on and off both lattices
            for count in range(0, 9):
                expected = _coeffs_or_error(s, start, count)
                assert _coeff_row_or_error(s, start, count) == expected, (start, count)


@st.composite
def row_request(draw):
    """A series and a (start, count) read, often ending on or just below the bound."""
    den = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 30]))
    lowest = draw(st.integers(-12, 12))
    s = FracSeries(den, lowest, draw(st.lists(st.integers(-5, 5), min_size=0, max_size=14)))
    count = draw(st.integers(0, 8))
    back = draw(st.one_of(
        st.sampled_from([0, 1]),  # last exponent exactly on the bound / one step below
        st.fractions(-2, 8, max_denominator=12),
    ))
    start = s.order_exponent - max(count - 1, 0) - back
    return s, draw(st.one_of(
        st.just(start),
        st.integers(-3, 14).map(lambda j: F(lowest + j, den)),  # on the lattice, in range
        st.fractions(-8, 8, max_denominator=60),
    )), count


@given(req=row_request())
@settings(max_examples=200, deadline=None)
def test_coeff_row_matches_coeff(req):
    s, start, count = req
    row = _coeff_row_or_error(s, start, count)
    assert row == _coeffs_or_error(s, start, count)
    assert row is ValueError or all(type(c) is int for c in row)


# --- strict comparison --------------------------------------------------------

def test_equal_through_refuses_unknown_region():
    short, long = FracSeries(1, 0, []), FracSeries(1, 0, [1, 2, 3])
    assert short != long  # == never passes on an empty overlap
    with pytest.raises(ValueError):
        equal_through(short, long, 0)
    with pytest.raises(ValueError):
        equal_through(long, short, 0)


def test_equal_through_is_inclusive_on_mixed_lattices():
    a = FracSeries(1, 0, [1, 2, 3, 0])       # exact below q^4
    b = FracSeries(2, 0, [1, 0, 2, 5, 4])    # 1 + 2q + 5q^(3/2) + 4q^2, exact below q^(5/2)
    assert equal_through(a, b, 1)
    assert not equal_through(a, b, F(3, 2))  # b has 5 q^(3/2), a has nothing there
    assert not equal_through(a, b, 2)
    with pytest.raises(ValueError):
        equal_through(a, b, F(5, 2))
    assert equal_through(b, b, F(12, 5))


# --- serialization -----------------------------------------------------------

def test_json_round_trip_exact():
    s = weighted_theta(14, 3, F(7, 2), 25) * monomial(1, -1, 24, 600)
    blob = s.dumps()
    t = FracSeries.loads(blob)
    assert (t.den, t.lowest, t.coeffs, t.order) == (s.den, s.lowest, s.coeffs, s.order)
    assert t.dumps() == blob


def test_json_load_pads_trailing_zeros():
    s = FracSeries.from_json_dict(
        {"denominator": 2, "lowest": -1, "coeffs": ["3/1"], "order": 4}
    )
    assert s.coeffs == (3, 0, 0, 0, 0)
    assert s.order == 4
    assert s.coeff(3, 2) == 0


def test_json_load_rejects_inconsistent_order():
    with pytest.raises(ValueError):
        FracSeries.from_json_dict(
            {"denominator": 1, "lowest": 0, "coeffs": ["1/1", "2/1"], "order": 1}
        )


def test_json_schema_shape():
    d = monomial(3, -1, 6, 3).to_json_dict()
    assert d == {
        "denominator": 6,
        "lowest": -1,
        "coeffs": ["3/1", "0/1", "0/1"],
        "order": 2,
    }
    assert json.dumps(d)  # serializable


# --- algebraic properties (property-based) ----------------------------------

small_ints = st.integers(-4, 4)


@st.composite
def frac_series(draw):
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    lowest = draw(st.integers(-10, 10))
    coeffs = draw(st.lists(small_ints, min_size=0, max_size=10))
    return FracSeries(den, lowest, coeffs)


@given(
    den=st.sampled_from([1, 2, 6, 840]),
    lowest=st.integers(-20, 20),
    coeffs=st.lists(st.one_of(st.just(0), st.integers(-10**30, 10**30), small_ints),
                    max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_json_writes_only_nonzero_slots(den, lowest, coeffs):
    # byte-identical to one string per dense slot, zeros and padding included
    s = FracSeries(den, lowest, coeffs)
    per_slot = {"denominator": s.den, "lowest": s.lowest,
                "coeffs": [f"{c.numerator}/{c.denominator}" if c else "0/1" for c in s.coeffs],
                "order": s.order}
    assert s.dumps() == json.dumps(per_slot)


@given(
    a=frac_series(),
    b=frac_series(),
    k=small_ints,
    theta=st.tuples(st.integers(1, 8), st.integers(-16, 16), st.integers(1, 12)),
    pad=st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_lowest_is_the_first_nonzero_position(a, b, k, theta, pad):
    # lowest is derived, whatever rule built the series: the first nonzero
    # position, or order for a zero series; coeffs and the JSON start there
    ta, tb, bound = theta
    blob = a.to_json_dict()
    padded = {**blob, "lowest": blob["lowest"] - pad, "coeffs": ["0/1"] * pad + blob["coeffs"]}
    for s in (
        a, a + b, a - b, a * b, a * k, k * a, -a, a.reduced(), (a * b).reduced(),
        monomial(k, ta, 4, bound), theta_null(ta, tb, bound),
        weighted_theta(ta, tb, F(ta, 2), bound), weighted_theta(2 * ta, ta, 1, bound),
        theta_null(ta, tb, bound) - theta_null(ta, tb, bound),
        FracSeries.loads(a.dumps()), FracSeries.from_json_dict(padded),
    ):
        first = min((p for p, _ in s.terms), default=s.order)
        assert s.lowest == first == s.to_json_dict()["lowest"]
        assert len(s.coeffs) == s.order - first
        assert s.coeffs[:1] != (0,)
        assert all(s.coeff(F(p, s.den)) == 0 for p in range(first - 3, first))


@given(a=frac_series(), b=frac_series())
@settings(max_examples=80, deadline=None)
def test_mul_commutative(a, b):
    ab, ba = a * b, b * a
    assert (ab.den, ab.lowest, ab.coeffs, ab.order) == (ba.den, ba.lowest, ba.coeffs, ba.order)


@given(a=frac_series(), b=frac_series(), c=frac_series())
@settings(max_examples=60, deadline=None)
def test_mul_associative_on_overlap(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(a=frac_series(), b=frac_series(), c=frac_series())
@settings(max_examples=60, deadline=None)
def test_mul_distributes_over_add(a, b, c):
    # A product is exact up to its factors' first nonzero terms, so when the
    # leading terms of b and c cancel, a * (b + c) knows more than the sum of
    # products.  Both agree below the sum's bound; without that cancellation
    # they are the same series, bound included.
    def first(s):
        lead = s.leading_term()
        return s.order_exponent if lead is None else lead[0]

    left, right = a * (b + c), a * b + a * c
    if first(b + c) == min(first(b), first(c)):
        assert left == right
    else:
        bound = right.order_exponent
        assert bound <= left.order_exponent
        assert [t for t in left.nonzero_terms() if t[0] < bound] == list(right.nonzero_terms())


@given(a=frac_series(), b=frac_series())
@settings(max_examples=200, deadline=None)
def test_sum_and_comparisons_match_slot_by_slot_reference(a, b):
    # +, == and equal_through read terms; each is checked here against coeff
    # reads at every slot of the lcm lattice below the common bound.  The
    # second pair is a and its dense copy on that lattice, built from those
    # reads, so == and equal_through also meet equal series
    d = lcm(a.den, b.den)
    top = min(a.order * (d // a.den), b.order * (d // b.den))
    lo = min(a.lowest * (d // a.den), b.lowest * (d // b.den), top) - 2
    slots = [F(p, d) for p in range(lo, top)]
    copy = FracSeries(d, lo, [a.coeff(x) for x in slots])
    for x, y in ((a, b), (a, copy)):
        total = x + y
        assert total.order_exponent == F(top, d)
        assert all(p < total.order for p, _ in total.terms)  # no term past the bound
        assert [total.coeff(e) for e in slots] == [x.coeff(e) + y.coeff(e) for e in slots]
        with pytest.raises(ValueError):
            total.coeff(F(top, d))
        same = [x.coeff(e) == y.coeff(e) for e in slots]
        assert (x == y) == (x.order_exponent == y.order_exponent and all(same))
        for k, e in enumerate(slots):
            assert equal_through(x, y, e) == all(same[: k + 1]), e
        with pytest.raises(ValueError):
            equal_through(x, y, F(top, d))


@given(a=frac_series())
@settings(max_examples=60, deadline=None)
def test_monomial_one_is_unit(a):
    one = monomial(1, 0, 1, 200)
    assert a * one == a


@st.composite
def series_pairs(draw):
    """A series and a second one: the same value on a finer lattice, then maybe changed."""
    a = draw(frac_series())
    k, pad = draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 3))
    coeffs = [0] * (pad + (a.order - a.lowest) * k)
    for p, c in a.terms:
        coeffs[pad + (p - a.lowest) * k] = c
    change = draw(st.sampled_from(["none", "bound", "coeff", "independent"]))
    if change == "bound":
        coeffs += [0] * draw(st.integers(1, 3))
    elif change == "coeff" and coeffs:
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(st.sampled_from([-1, 1]))
    elif change == "independent":
        return a, draw(frac_series())
    return a, FracSeries(a.den * k, a.lowest * k - pad, coeffs)


@given(pair=series_pairs())
@settings(max_examples=100, deadline=None)
def test_eq_is_bound_and_nonzero_terms(pair):
    a, b = pair
    same = a.order_exponent == b.order_exponent and list(a.nonzero_terms()) == list(
        b.nonzero_terms())
    assert (a == b) is same
    assert (b == a) is same


def test_series_from_terms_merges_duplicates():
    s = series_from_terms([(F(1, 2), F(1)), (F(1, 2), F(2)), (F(3), F(-1))], 5)
    assert s.coeff(1, 2) == 3
    assert s.coeff(3) == -1


def test_series_from_terms_refuses_non_integral_sums():
    assert series_from_terms([(0, F(1, 2)), (0, F(1, 2)), (1, 3)], 2).terms == ((0, 1), (1, 3))
    with pytest.raises(ValueError):
        series_from_terms([(0, F(1, 2)), (1, 3)], 2)


# --- sparse kernel against the dense reference -------------------------------

def binom(e, k):
    """Generalized binomial C(e, k) for integer e (possibly negative)."""
    if e >= 0:
        return comb(e, k) if k <= e else 0
    return (-1) ** k * comb(-e + k - 1, k)


def binomial_euler(sign, exponent, n):
    """prod_{m<=n} (1 + sign q^m)^exponent through q^n, one binomial factor at a time."""
    acc = [0] * (n + 1)
    acc[0] = 1
    for m in range(1, n + 1):
        factor = [(k, binom(exponent, k) * sign**k) for k in range(n // m + 1)]
        new = [0] * (n + 1)
        for pos, c in enumerate(acc):
            for k, b in factor:
                if c and pos + k * m <= n:
                    new[pos + k * m] += c * b
        acc = new
    return acc


def euler_by_divisor_sums(parts, n):
    """prod over (sign, e) in parts of prod_{m<=n} (1 + sign q^m)^e through q^n, O(n^2).

    Logarithmic-derivative recurrence ``n a_n = sum_{k=1..n} g(k) a_{n-k}``,
    where g is the sum of the parts' own: ``g(k) = -e sigma(k)`` for
    ``(1-q^m)^e`` and ``g(k) = e (sigma(k) - 2 sigma(k/2))`` for
    ``(1+q^m)^e``, with sigma the divisor sum (zero off the integers).
    """
    sigma = [0] * (n + 1)
    for k in range(1, n + 1):
        for m in range(k, n + 1, k):
            sigma[m] += k
    g = [0] * (n + 1)
    for sign, e in parts:
        for k in range(1, n + 1):
            if sign == -1:
                g[k] -= e * sigma[k]
            else:
                g[k] += e * (sigma[k] - (0 if k % 2 else 2 * sigma[k // 2]))
    a = [1] + [0] * n
    for m in range(1, n + 1):
        total = sum(g[k] * a[m - k] for k in range(1, m + 1))
        assert total % m == 0
        a[m] = total // m
    return tuple(a)


def dense_product(a, b):
    """Product of two rows from q^0, through the shorter one's last slot."""
    n = min(len(a), len(b))
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n))


EULER_FACTORS = [(sign, e) for sign in (1, -1) for e in range(-4, 4)]

CHARACTER_PARTS = {"virasoro": ((-1, -1),), "sl2": ((-1, -3),), "osp": ((1, 2), (-1, -3))}


def test_euler_rows_match_the_divisor_sum_recurrence():
    # every multiset of parts that the product test below draws, at n <= 60:
    # past every exponent of the three sparse series up to q^16, and the
    # last two; a row through q^60 holds every shorter row as its prefix
    for size in (1, 2, 3):
        for parts in combinations_with_replacement(EULER_FACTORS, size):
            ref = euler_by_divisor_sums(parts, 60)
            for n in (*range(17), 59, 60):
                assert _euler(parts, n) == ref[: n + 1], (parts, n)


@pytest.mark.parametrize("name", sorted(CHARACTER_PARTS))
def test_character_euler_rows_match_the_recurrence_through_300(name):
    parts = CHARACTER_PARTS[name]
    ref = euler_by_divisor_sums(parts, 300)
    for n in range(301):
        assert _euler(parts, n) == ref[: n + 1], n
    assert all(type(c) is int for c in _euler(parts, 300))


def test_empty_euler_product_and_order_zero():
    for n in (0, 1, 2, 60):
        assert _euler((), n) == (1,) + (0,) * n
    for parts in [*CHARACTER_PARTS.values(), ((1, 5),), ((-1, 7), (1, -2))]:
        assert _euler(parts, 0) == (1,)


@pytest.mark.parametrize(
    "parts", [((1, 10**9),), ((-1, -(10**9) - 7), (1, 3)), ((1, -(2**40)), (-1, 2**40 + 1))]
)
def test_a_large_exponent_costs_a_few_passes_per_bit(monkeypatch, parts):
    # binary powering: each of the four series costs at most one pass and two
    # products per bit of its power, so an exponent near 10**9 stays cheap; the
    # divisor-sum reference costs O(n^2) whatever the exponent
    passes = []

    def counted(helper):
        def run(row, terms):
            passes.append(1)
            assert len(passes) <= 4 * 3 * 42, "more than three passes a bit"
            return helper(row, terms)

        return run

    for name in ("_times", "_over"):
        monkeypatch.setattr(series, name, counted(getattr(series, name)))
    assert series._euler.__wrapped__(parts, 12) == euler_by_divisor_sums(parts, 12)
    assert passes


# the four sparse series the rows are built from, as Euler parts: P = (q;q),
# J = (q;q)^3, T = theta_4 = (q;q)^2/(q^2;q^2) = (q;q)/prod(1+q^m) and
# Q = P T^2 = (q;q)^3/prod(1+q^m)^2, whose inverse is the osp(1|2) row
SPARSE_SERIES = {"P": ((-1, 1),), "J": ((-1, 3),), "T": ((-1, 1), (1, -1)), "Q": ((-1, 3), (1, -2))}


@pytest.mark.parametrize("name", sorted(SPARSE_SERIES))
def test_sparse_series_and_inverses_match_binomial_products(name):
    n = 200
    for parts in (SPARSE_SERIES[name], tuple((sign, -e) for sign, e in SPARSE_SERIES[name])):
        expected = (1,) + (0,) * n
        for sign, e in parts:
            expected = dense_product(expected, binomial_euler(sign, e, n))
        assert _euler(parts, n) == expected, parts
    # nonzero terms through q^200, the constant 1 included
    series = _euler(SPARSE_SERIES[name], n)
    assert sum(1 for c in series if c) == {"P": 23, "J": 20, "T": 15, "Q": 23}[name]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("exponent", [-3, -1, 1, 2])
def test_euler_recurrence_matches_binomial_expansion(sign, exponent):
    expected = binomial_euler(sign, exponent, 60)
    for n in range(1, 61):
        s = euler_product(sign, exponent, n)
        assert (s.den, s.lowest, s.order) == (1, 0, n + 1)
        assert s.coeffs == tuple(expected[: n + 1]), n


def test_combined_euler_matches_product_of_single_factors():
    # a row depends on the parts only through their sums, so every multiset
    # stands for all its orderings; the reversed order is checked as well
    for size in (1, 2, 3):
        for parts in combinations_with_replacement(EULER_FACTORS, size):
            full = euler_product(*parts[0], 60)
            for sign, e in parts[1:]:
                full = full * euler_product(sign, e, 60)
            for n in (1, 2, 7, 60):
                s = FracSeries(1, 0, _euler(parts, n))
                known = tuple(t for t in full.terms if t[0] <= n)
                assert (s.den, s.lowest, s.order, s.terms) == (1, 0, n + 1, known), (parts, n)
            assert FracSeries(1, 0, _euler(parts[::-1], 60)).terms == full.terms, parts


def test_combined_euler_every_length():
    # the factors of the osp(1|2) and sl2 characters, at every length up to 60
    for parts in (((1, 2), (-1, -3)), ((-1, -3),), ((1, -4), (1, 3), (-1, 2))):
        for n in range(1, 61):
            full = euler_product(*parts[0], n)
            for sign, e in parts[1:]:
                full = full * euler_product(sign, e, n)
            s = FracSeries(1, 0, _euler(parts, n))
            assert (s.den, s.lowest, s.order, s.terms) == (1, 0, n + 1, full.terms), (parts, n)


class DenseSeries:
    """The dense kernel: a Fraction in every slot of the 1/den lattice."""

    def __init__(self, den, lowest, coeffs):
        # lowest is the position of coeffs[0]; leading zero slots are dropped,
        # so it ends at the first nonzero position, or at order for zero
        coeffs = [F(c) for c in coeffs]
        skip = next((k for k, c in enumerate(coeffs) if c), len(coeffs))
        self.den, self.lowest, self.coeffs = den, lowest + skip, coeffs[skip:]

    @property
    def order(self):
        return self.lowest + len(self.coeffs)

    def rescale(self, new_den):
        f = new_den // self.den
        coeffs = [F(0)] * (len(self.coeffs) * f)
        coeffs[::f] = self.coeffs
        return DenseSeries(new_den, self.lowest * f, coeffs)

    def reduced(self):
        if self.den == 1:
            return self
        g = 0
        for k, c in enumerate(self.coeffs):
            if c:
                g = gcd(g, self.lowest + k)
        d = gcd(g, self.den, self.order)
        if d == 1:
            return self
        hi = self.order // d
        lo = min(-(-self.lowest // d), hi)
        coeffs = [F(0)] * (hi - lo)
        for k, c in enumerate(self.coeffs):
            if c:
                coeffs[(self.lowest + k) // d - lo] = c
        return DenseSeries(self.den // d, lo, coeffs)

    def __add__(self, other):
        d = lcm(self.den, other.den)
        a, b = self.rescale(d), other.rescale(d)
        order = min(a.order, b.order)
        lowest = min(a.lowest, b.lowest, order)
        coeffs = [F(0)] * (order - lowest)
        for s in (a, b):
            for k, c in enumerate(s.coeffs):
                if s.lowest + k < order:
                    coeffs[s.lowest + k - lowest] += c
        return DenseSeries(d, lowest, coeffs)

    def __mul__(self, other):
        d = lcm(self.den, other.den)
        a, b = self.rescale(d), other.rescale(d)
        ta = [(a.lowest + k, c) for k, c in enumerate(a.coeffs) if c]
        tb = [(b.lowest + k, c) for k, c in enumerate(b.coeffs) if c]
        lo_a = ta[0][0] if ta else a.order
        lo_b = tb[0][0] if tb else b.order
        order = min(a.order + lo_b, b.order + lo_a)
        lowest = min(lo_a + lo_b, order)
        coeffs = [F(0)] * (order - lowest)
        for i, ca in ta:
            for j, cb in tb:
                if i + j < order:
                    coeffs[i + j - lowest] += ca * cb
        return DenseSeries(d, lowest, coeffs)

    def to_json_dict(self):
        return {
            "denominator": self.den,
            "lowest": self.lowest,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
            "order": self.order,
        }


@st.composite
def paired_series(draw):
    """The same coefficients as a sparse FracSeries and as a DenseSeries."""
    den = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 30]))
    lowest = draw(st.integers(-12, 12))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(-5, 5)), min_size=0, max_size=14))
    return FracSeries(den, lowest, coeffs), DenseSeries(den, lowest, coeffs)


@given(a=paired_series(), b=paired_series())
@settings(max_examples=200, deadline=None)
def test_sparse_kernel_matches_dense_reference(a, b):
    (sa, da), (sb, db) = a, b
    assert sa.to_json_dict() == da.to_json_dict()
    assert (sa * sb).to_json_dict() == (da * db).to_json_dict()
    assert (sa + sb).to_json_dict() == (da + db).to_json_dict()
    assert sa.reduced().to_json_dict() == da.reduced().to_json_dict()
    assert (sa * sb).reduced().to_json_dict() == (da * db).reduced().to_json_dict()


# --- packed (Kronecker) products against the dense reference ----------------

@st.composite
def long_paired_series(draw):
    """Factors of 30-150 slots: big signed ints, several residue classes, or edge cases."""
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 12, 30]))
    lowest = draw(st.integers(-40, 40))
    kind = draw(st.sampled_from(["ints"] * 7 + ["one", "empty"]))
    if kind == "empty":
        coeffs = [0] * draw(st.integers(0, 150))
    elif kind == "one":
        coeffs = [0] * draw(st.integers(0, 149))
        coeffs.insert(draw(st.integers(0, len(coeffs))), draw(st.integers(1, 2**300)))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        top = 2 ** draw(st.sampled_from([1, 8, 40, 90, 300]))
        zeros = draw(st.sampled_from([0, 0.2, 0.6]))
        coeffs = [
            0 if rng.random() < zeros else rng.randint(-top, top)
            for _ in range(rng.randint(30, 150))
        ]
    return FracSeries(den, lowest, coeffs), DenseSeries(den, lowest, coeffs)


@given(a=long_paired_series(), b=long_paired_series())
@settings(max_examples=100, deadline=None)
def test_long_products_match_dense_reference(a, b):
    (sa, da), (sb, db) = a, b
    product = sa * sb
    assert product.to_json_dict() == (da * db).to_json_dict()
    assert all(type(c) is int for _, c in product.terms)


@pytest.mark.parametrize("length", [63, 127, 255])
def test_long_products_reach_the_slot_bound(length):
    # slot k of a product of two full-length rows of +-(2^b - 1) sums k + 1
    # products of one sign (whether or not signs alternate along the rows),
    # so the top slot reaches length * (2^ba - 1) * (2^bb - 1), the largest
    # magnitude the slot width provides for; ba + bb + bit_length(length)
    # takes every residue mod 8, so some widths fill their bytes exactly
    for ba in [*range(2, 10), 64, 300]:
        for bb in range(2, 10):
            ma, mb = 2**ba - 1, 2**bb - 1
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                for alternate in (False, True):
                    sign = (lambda k: (-1) ** k) if alternate else (lambda k: 1)
                    a = FracSeries(1, 0, [sa * sign(k) * ma for k in range(length)])
                    b = FracSeries(1, 0, [sb * sign(k) * mb for k in range(length)])
                    expected = [sa * sb * sign(k) * (k + 1) * ma * mb for k in range(length)]
                    assert (a * b).coeffs == tuple(expected), (length, ba, bb, sa, sb)


# --- row storage: one entry per whole level ----------------------------------

@st.composite
def level_rows(draw):
    """(den, lead, coeffs) of a series whose terms lie whole levels apart.

    The lead may sit in any residue class mod den; coefficients are big and
    signed, with some zeros, and the bound lies a few slots past the last level.
    """
    den = draw(st.sampled_from([24, 168, 840]))
    lead = draw(st.integers(0, den - 1)) + den * draw(st.integers(-3, 3))
    top = 2 ** draw(st.sampled_from([1, 40, 200]))
    levels = draw(st.lists(st.one_of(st.just(0), st.integers(-top, top)), max_size=24))
    coeffs = [0] * (max(len(levels) - 1, 0) * den + draw(st.integers(1, 2 * den)))
    coeffs[: len(levels) * den : den] = levels
    return den, lead, coeffs


def _dense_coeffs_or_error(d, start, count):
    """Coefficients of q^(start + k) read from a DenseSeries, or ValueError past its bound."""
    out = []
    for k in range(count):
        pos = (start + k) * d.den
        if pos >= d.order:
            return ValueError
        inside = pos.denominator == 1 and pos >= d.lowest
        out.append(int(d.coeffs[pos.numerator - d.lowest]) if inside else 0)
    return tuple(out)


@given(a=level_rows(), b=level_rows(), same=st.sampled_from(["no", "yes", "one level"]),
       shift=st.integers(-4, 30))
@settings(max_examples=60, deadline=None)
def test_level_rows_match_dense_reference(a, b, same, shift):
    if same != "no":  # b is a, or a with one level changed
        den, lead, coeffs = a
        coeffs = list(coeffs)
        if same == "one level":
            coeffs[shift % ((len(coeffs) - 1) // den + 1) * den] += 1
        b = den, lead, coeffs
    (sa, da), (sb, db) = [(FracSeries(*x), DenseSeries(*x)) for x in (a, b)]
    for s in (sa, sb, sa * sb, sb * sa):
        assert s.step == s.den, s
    assert (sa * sb).to_json_dict() == (da * db).to_json_dict()
    assert (sa + sb).to_json_dict() == (da + db).to_json_dict()
    assert sa.reduced().to_json_dict() == da.reduced().to_json_dict()
    assert (sa * sb).reduced().to_json_dict() == (da * db).reduced().to_json_dict()
    assert (sa == sb) is (da.den == db.den and da.to_json_dict() == db.to_json_dict())
    assert sa == FracSeries.loads(sa.dumps()) == sa.reduced()
    first = F(sa.lowest, sa.den) + shift  # on the lattice, from below lowest to past the bound
    for start in (first, first + F(1, sa.den), first - F(1, 2 * sa.den)):
        for count in (0, 1, 3, 25):
            assert _coeff_row_or_error(sa, start, count) == _dense_coeffs_or_error(da, start, count)


def test_decomposition_series_hold_one_entry_per_level(monkeypatch):
    # every series built by the decomposition check, characters and products
    # alike, sits on whole levels, so each row entry is one level
    built, store = [], series._store

    def recording(*args):
        built.append(store(*args))
        return built[-1]

    monkeypatch.setattr(series, "_store", recording)
    for cache in (coset._summand_series, series._character, series._euler):
        cache.cache_clear()
    assert coset.verify_decomposition(40).passed
    # the 10 characters and 7 products, and no intermediate theta series
    assert len(built) == 17 and max(s.den for s in built) == 840
    assert all(s.step == s.den for s in built)
    rows = [s for s in built if s.den == 840 and len(s.row) == 41]
    assert len(rows) >= 7  # the characters and products through order 40


@pytest.mark.parametrize("length", [4, 9, 40])
def test_product_of_a_level_row_and_a_multi_class_series(length):
    # the character's row is spread six entries a level to meet the den-6
    # factor's step of 1/6 (pair loop for 4 entries, packed for 9 and 40)
    ch = MinimalModel(10, 7).character(KacLabel(2, 1), 6)
    other = FracSeries(6, -5, [(-1) ** k * (k % 7) for k in range(length)])
    dch = DenseSeries(ch.den, ch.lowest, ch.coeffs)
    dother = DenseSeries(6, -5, [(-1) ** k * (k % 7) for k in range(length)])
    assert other.step == 1 and (ch * other).step == 140
    for got, want in ((ch * other, dch * dother), (other * ch, dother * dch),
                      (ch + other, dch + dother)):
        assert got.to_json_dict() == want.to_json_dict()
