import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cosetchar import series
from cosetchar.minimal import KacLabel, MinimalModel
from cosetchar.series import (
    FracSeries,
    _euler,
    equal_through,
    euler_product,
    monomial,
    series_from_terms,
    theta_null,
    weighted_theta,
)

F = Fraction


# --- independent oracles -------------------------------------------------

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


def test_euler_product_negative_cube():
    s = euler_product(-1, -3, 12)
    inv = euler_product(-1, 1, 12) ** 3
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
    assert small == large.truncate(30)
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
    # with a lowest slot whose weights n and -n cancel
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
                    cancelled += got.lowest < (got.terms[0][0] if got.terms else got.order)
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
        out.append(F(terms.get(pos.numerator, 0)) if pos.denominator == 1 else F(0))
    return tuple(out)


def test_coeff_row_matches_coeff_on_a_grid():
    dense = theta_null(3, 1, 6) * euler_product(-1, -2, 8)  # den 12, exact below q^6
    for s in (dense, dense.scaled(F(1, 3)), FracSeries(5, -7, [0, 2, 0, 0, 0, 0, -1])):
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
    entry = st.one_of(st.integers(-5, 5), small_fracs)
    s = FracSeries(den, lowest, draw(st.lists(entry, min_size=0, max_size=14)))
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
    # an int when integral, a Fraction (never one with denominator 1) otherwise
    assert row is ValueError or all(type(c) is (int if c.denominator == 1 else F) for c in row)


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
    assert s.coeffs == (F(3), F(0), F(0), F(0), F(0))
    assert s.order == 4
    assert s.coeff(3, 2) == 0


def test_json_load_rejects_inconsistent_order():
    with pytest.raises(ValueError):
        FracSeries.from_json_dict(
            {"denominator": 1, "lowest": 0, "coeffs": ["1/1", "2/1"], "order": 1}
        )


def test_truncate_beyond_bound_raises():
    s = monomial(1, 0, 1, 4)
    with pytest.raises(ValueError):
        s.truncate(5)
    assert s.truncate(2).order == 2


def test_pow_requires_positive_integer():
    s = monomial(2, 1, 1, 5)
    assert (s ** 3).coeff(3) == 8
    with pytest.raises(ValueError):
        s ** 0


def test_json_schema_shape():
    d = monomial(F(3, 2), -1, 6, 3).to_json_dict()
    assert d == {
        "denominator": 6,
        "lowest": -1,
        "coeffs": ["3/2", "0/1", "0/1"],
        "order": 2,
    }
    assert json.dumps(d)  # serializable


# --- algebraic properties (property-based) ----------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def frac_series(draw):
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    lowest = draw(st.integers(-10, 10))
    coeffs = draw(st.lists(small_fracs, min_size=0, max_size=10))
    return FracSeries(den, lowest, coeffs)


@given(
    den=st.sampled_from([1, 2, 6, 840]),
    lowest=st.integers(-20, 20),
    coeffs=st.lists(st.one_of(st.just(0), st.integers(-10**30, 10**30), small_fracs),
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
    assert a * (b + c) == a * b + a * c


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


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("exponent", [-3, -1, 1, 2])
def test_euler_recurrence_matches_binomial_expansion(sign, exponent):
    expected = binomial_euler(sign, exponent, 60)
    for n in range(1, 61):
        s = euler_product(sign, exponent, n)
        assert (s.den, s.lowest, s.order) == (1, 0, n + 1)
        assert s.coeffs == tuple(expected[: n + 1]), n


def test_combined_euler_matches_product_of_single_factors():
    factors = [(sign, e) for sign in (1, -1) for e in range(-4, 4)]
    # the recurrence is symmetric in the parts, so every multiset stands for
    # all its orderings; the reversed order is checked as well
    for size in (1, 2, 3):
        for parts in combinations_with_replacement(factors, size):
            full = euler_product(*parts[0], 60)
            for sign, e in parts[1:]:
                full = full * euler_product(sign, e, 60)
            for n in (1, 2, 7, 60):
                s = FracSeries(1, 0, _euler(parts, n))
                t = full.truncate(n + 1)
                assert (s.den, s.lowest, s.order, s.terms) == (1, 0, n + 1, t.terms), (parts, n)
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
        self.den, self.lowest, self.coeffs = den, lowest, [F(c) for c in coeffs]

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

    def truncate(self, bound):
        scaled = F(bound) * self.den
        new_order = -(-scaled.numerator // scaled.denominator)
        keep = max(new_order - self.lowest, 0)
        return DenseSeries(self.den, min(self.lowest, new_order), self.coeffs[:keep])

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
    ints = st.one_of(st.just(0), st.integers(-5, 5))
    entry = ints if draw(st.booleans()) else st.one_of(ints, small_fracs)
    coeffs = draw(st.lists(entry, min_size=0, max_size=14))
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


@given(a=paired_series(), back=st.fractions(0, 4, max_denominator=12))
@settings(max_examples=100, deadline=None)
def test_sparse_truncate_matches_dense_reference(a, back):
    s, d = a
    bound = s.order_exponent - back
    assert s.truncate(bound).to_json_dict() == d.truncate(bound).to_json_dict()


def test_integer_coefficients_stay_int():
    s = FracSeries(2, 0, [F(4, 2), 1, 0, F(1, 3)])
    assert s.terms == ((0, 2), (1, 1), (3, F(1, 3)))
    assert type(s.terms[0][1]) is int
    assert all(type(c) is int for _, c in (euler_product(-1, -3, 20) * s.truncate(1)).terms)
    assert s.coeff(0) == 2 and type(s.coeff(0)) is int
    assert s.coeff(3, 2) == F(1, 3) and type(s.coeff(3, 2)) is F
    # arithmetic that makes an integral Fraction stores it as an int
    thirds = s.scaled(F(1, 3)).scaled(3)
    assert thirds.coeff(0) == 2 and type(thirds.coeff(0)) is int


def _assert_int_terms(s, terms):
    assert s.terms == terms
    assert all(type(c) is int for _, c in s.terms), s.terms


def test_integral_fraction_results_are_stored_as_int():
    thirds = FracSeries(1, 0, [F(1, 3), F(2, 3)])
    _assert_int_terms(thirds.scaled(3), ((0, 1), (1, 2)))
    _assert_int_terms(thirds.scaled(F(3, 2)).scaled(F(2, 1)), ((0, 1), (1, 2)))
    _assert_int_terms(thirds + thirds + thirds, ((0, 1), (1, 2)))
    _assert_int_terms(thirds + FracSeries(1, 0, [F(2, 3), F(1, 3)]), ((0, 1), (1, 1)))
    _assert_int_terms(thirds * FracSeries(1, 0, [3, 6]), ((0, 1), (1, 4)))
    _assert_int_terms(thirds * thirds * 9, ((0, 1), (1, 4)))
    halves = series_from_terms([(0, F(1, 2)), (0, F(1, 2)), (1, 3)], 2)
    _assert_int_terms(halves, ((0, 1), (1, 3)))
    # a non-integral result stays a Fraction
    assert (thirds + thirds).terms == ((0, F(2, 3)), (1, F(4, 3)))


def test_normalised_series_takes_the_packed_product(monkeypatch):
    # once its integral Fractions are ints, a long series multiplies like the
    # all-int series it equals: packed, to the same terms and bound
    n = 2 * series._KRONECKER_MIN_TERMS
    ints = FracSeries(2, -3, [(-1) ** k * (k + 1) for k in range(n)])
    made = FracSeries(2, -3, [F((-1) ** k * (k + 1), 7) for k in range(n)]).scaled(7)
    _assert_int_terms(made, ints.terms)
    packed = []
    kronecker = series._kronecker
    monkeypatch.setattr(series, "_kronecker", lambda *a: packed.append(1) or kronecker(*a))
    square = made * made
    assert packed == [1]
    assert square == ints * ints
    _assert_int_terms(square, (ints * ints).terms)


# --- packed (Kronecker) products against the dense reference ----------------

@st.composite
def long_paired_series(draw):
    """Factors of 30-150 slots: big signed ints, several residue classes, or edge cases."""
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 12, 30]))
    lowest = draw(st.integers(-40, 40))
    kind = draw(st.sampled_from(["ints"] * 7 + ["fraction", "one", "empty"]))
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
        if kind == "fraction":
            coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(small_fracs)
    return FracSeries(den, lowest, coeffs), DenseSeries(den, lowest, coeffs)


@given(a=long_paired_series(), b=long_paired_series())
@settings(max_examples=100, deadline=None)
def test_long_products_match_dense_reference(a, b):
    (sa, da), (sb, db) = a, b
    product = sa * sb
    assert product.to_json_dict() == (da * db).to_json_dict()
    if all(type(c) is int for s in (sa, sb) for _, c in s.terms):
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
