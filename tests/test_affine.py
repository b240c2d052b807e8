import json
from fractions import Fraction
from math import floor, gcd

import pytest

from cosetchar import affine, minimal, series
from cosetchar.affine import (
    BranchTerm,
    OspLabel,
    Sl2Label,
    branch_character,
    branch_terms,
    h_alpha_beta,
    lowest_space,
    osp_central_charge,
    osp_character,
    osp_modules,
    osp_weight,
    singular_weights,
    sl2_central_charge,
    sl2_character,
    sl2_weight,
)
from cosetchar.cli import MAX_PQ
from cosetchar.minimal import KacLabel, MinimalModel
from cosetchar.series import (
    FracSeries,
    _euler,
    equal_through,
    monomial,
    theta_null,
    weighted_theta,
)

F = Fraction
L = KacLabel


def test_osp_central_charges():
    assert osp_central_charge(1) == F(2, 5)
    assert osp_central_charge(2) == F(4, 7)
    # sum rule for the tensor square of the level-1 algebra
    assert 2 * osp_central_charge(1) == osp_central_charge(2) + MinimalModel(10, 7).central_charge()


def test_osp_module_lists():
    assert [m.r for m in osp_modules(1)] == [1, 3]
    assert [m.r for m in osp_modules(2)] == [1, 3, 5]
    for l in range(1, 6):
        assert len(osp_modules(l)) == l + 1
    for l in (0, -1, -5):
        for call in (osp_modules, osp_central_charge, sl2_central_charge):
            with pytest.raises(ValueError, match="^level must be a positive integer$"):
                call(l)


def test_label_validation():
    with pytest.raises(ValueError):
        OspLabel(2, 2)  # even r
    with pytest.raises(ValueError):
        OspLabel(2, 7)  # out of range
    with pytest.raises(ValueError):
        Sl2Label(2, 3)
    with pytest.raises(ValueError):
        Sl2Label(0, 0)


@pytest.mark.parametrize("label", [OspLabel, Sl2Label])
def test_labels_read_their_fields_as_ints(label):
    for fields in [(1, 1.0), (1.0, 1), (F(1), 1), (1, F(1))]:
        with pytest.raises(TypeError):
            label(*fields)
    assert label(True, True) == label(1, 1)  # a bool is an int, as an order is


def test_osp_character_leading_terms():
    assert osp_character(OspLabel(2, 1), 0).leading_term() == (F(-1, 42), F(1))
    # M_3 at level 2: weight 1/7, three lowest states
    assert osp_character(OspLabel(2, 3), 0).leading_term() == (F(1, 7) - F(1, 42), F(3))
    for l in (1, 2, 3):
        lead = osp_character(OspLabel(l, 1), 0).leading_term()
        assert lead == (-osp_central_charge(l) / 24, F(1))


def test_osp_vacuum_tensor_square_coefficients():
    ch = osp_character(OspLabel(1, 1), 8)
    sq = ch * ch
    e0 = F(-1, 30)
    assert [sq.coeff(e0 + k) for k in range(6)] == [1, 10, 43, 132, 375, 946]


def test_sl2_leading_terms():
    assert sl2_character(Sl2Label(2, 0), 0).leading_term() == (F(-1, 16), F(1))
    for l in (1, 2, 3):
        for i in range(l + 1):
            lab = Sl2Label(l, i)
            lead = sl2_character(lab, 0).leading_term()
            assert lead == (sl2_weight(lab) - sl2_central_charge(l) / 24, F(i + 1))


def test_sl2_level_one_vacuum_graded_dims():
    # level-1 sl2 vacuum: lattice realization gives sum_m q^(m^2) / prod(1-q^n)
    ch = sl2_character(Sl2Label(1, 0), 10)
    e0 = F(-1, 24)
    dims = [ch.coeff(e0 + k) for k in range(8)]
    assert dims == [1, 3, 4, 7, 13, 19, 29, 43]


def test_sl2_character_exact_at_target_when_shifted_target_is_integral():
    # L(7,5): target + 1/8 = n + 1, so a theta numerator cut at the shifted
    # target itself would leave the character exact only below target; the
    # theta bound is the least integer above it
    lab = Sl2Label(7, 5)
    deep = sl2_character(lab, 12)
    for n in range(8):
        target = sl2_weight(lab) - sl2_central_charge(7) / 24 + n
        assert (target + F(1, 8)).denominator == 1
        assert sl2_character(lab, n).coeff(target) == deep.coeff(target), n


def test_branching_completeness():
    # even + odd = full character, computed along two independent routes
    for l, order in ((1, 20), (2, 20), (3, 15), (4, 15), (5, 15), (6, 15)):
        for lab in osp_modules(l):
            even = branch_character(l, lab.r, "even", order)
            odd = branch_character(l, lab.r, "odd", order)
            total = osp_character(lab, order)
            top = osp_weight(l, lab.r) - osp_central_charge(l) / 24 + order
            assert equal_through(even + odd, total, top), (l, lab.r)


def test_branch_character_both_equals_osp():
    for l, order in ((1, 15), (2, 12), (3, 15), (4, 15), (5, 15), (6, 15)):
        for lab in osp_modules(l):
            branch = branch_character(l, lab.r, "both", order)
            osp = osp_character(lab, order)
            top = osp_weight(l, lab.r) - osp_central_charge(l) / 24 + order
            assert equal_through(branch, osp, top), (l, lab.r)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_gko_coset_identity(k):
    # ch_sl2(k,i) ch_sl2(1,eps) = sum_{j = i+eps mod 2} ch_sl2(k+1,j) ch_Vir(k+3,k+2)(i+1,j+1)
    # (Goddard, Kent and Olive 1986), through 12 levels above the leading term
    order = 12
    model = MinimalModel(k + 3, k + 2)
    c = sl2_central_charge(k) + sl2_central_charge(1)
    for i in range(k + 1):
        for eps in (0, 1):
            lhs = sl2_character(Sl2Label(k, i), order) * sl2_character(Sl2Label(1, eps), order)
            terms = [sl2_character(Sl2Label(k + 1, j), order)
                     * model.character(L(i + 1, j + 1), order)
                     for j in range((i + eps) % 2, k + 2, 2)]
            rhs = sum(terms[1:], terms[0])
            top = sl2_weight(Sl2Label(k, i)) + sl2_weight(Sl2Label(1, eps)) - c / 24 + order
            assert equal_through(lhs, rhs, top), (k, i, eps)


@pytest.mark.parametrize("build", [
    lambda order: MinimalModel(10, 7).character(L(3, 1), order),
    lambda order: osp_character(OspLabel(1, 1), order),
    lambda order: sl2_character(Sl2Label(1, 0), order),
    lambda order: branch_character(2, 3, "even", order),
    lambda order: affine._osp_supercharacter(OspLabel(1, 1), order),
], ids=["vir", "osp", "sl2", "branch", "supercharacter"])
@pytest.mark.parametrize("order", [-1, -3])
def test_character_rejects_negative_order(build, order):
    with pytest.raises(ValueError, match="order must be >= 0"):
        build(order)


def test_character_coefficients_nonneg_integers():
    for l in (1, 2):
        for lab in osp_modules(l):
            ch = osp_character(lab, 20)
            e0 = osp_weight(l, lab.r) - osp_central_charge(l) / 24
            for k in range(21):
                c = ch.coeff(e0 + k)
                assert c.denominator == 1 and c >= 0


def test_branch_terms_structure():
    terms = branch_terms(2, 3)
    assert [t.sl2.i for t in terms] == [0, 1, 2]
    assert [t.vir for t in terms] == [L(1, 3), L(2, 3), L(3, 3)]
    assert [t.parity for t in terms] == ["even", "odd", "even"]
    assert terms[1] == BranchTerm(2, 1, 3) and terms[1].sl2 == Sl2Label(2, 1)
    with pytest.raises(ValueError):
        BranchTerm(2, 3, 3)  # i > l
    with pytest.raises(ValueError):
        BranchTerm(2, 1, 4)  # even r


def test_branch_terms_refuse_an_unknown_parity():
    with pytest.raises(ValueError, match="parity"):
        branch_terms(2, 1, "bogus")
    with pytest.raises(ValueError, match="parity"):
        branch_character(2, 1, "bogus", 3)
    # every valid parity has a term at every level
    for l in range(1, 6):
        for parity in ("even", "odd", "both"):
            assert branch_terms(l, 1, parity)


def test_branch_terms_json():
    blob = json.dumps([t.to_json() for t in branch_terms(2, 5, "even")])
    data = json.loads(blob)
    assert data[0] == {
        "sl2": {"level": 2, "i": 0},
        "vir": {"r": 1, "s": 5},
        "parity": "even",
        "weight": "10/7",
    }
    assert data[1]["weight"] == "3/7"


def branch_weight(l, i, r):
    """Closed-form weight of L(l,i) (x) V_{i+1,r}: the reference for BranchTerm.weight."""
    return F(2 * (i + 1) ** 2 - 2 * (i + 1) * r, 4) + F((l + 2) * (r * r - 1), 4 * (2 * l + 3))


def test_branch_weights():
    assert BranchTerm(2, 0, 3).weight == F(1, 7)
    assert BranchTerm(2, 1, 3).weight == F(1, 7)
    assert BranchTerm(2, 1, 5).weight == F(3, 7)
    assert BranchTerm(2, 2, 5).weight == F(3, 7)
    assert BranchTerm(2, 0, 5).weight == F(10, 7)
    for l in (1, 2, 3, 4):
        assert BranchTerm(l, 0, 1).weight == 0


def test_branch_weight_agrees_with_sl2_plus_vir():
    # BranchTerm.weight adds the sl2 and Virasoro weights; the closed form does not
    for l in range(1, 13):
        for r in range(1, 2 * l + 2, 2):
            for i in range(l + 1):
                assert BranchTerm(l, i, r).weight == branch_weight(l, i, r), (l, i, r)


def test_lowest_spaces():
    assert lowest_space(2, 3) == (F(1, 7), 3)
    assert lowest_space(2, 5) == (F(3, 7), 5)
    for l in (1, 2, 3, 4):
        assert lowest_space(l, 1) == (F(0), 1)


def test_h_alpha_beta_values():
    t = F(10, 7)
    assert h_alpha_beta(2, -1, t) == F(4, 7) + 2
    assert h_alpha_beta(6, -1, t) == 16
    assert h_alpha_beta(-8, -1, t) == 19
    for tt in (F(3, 2), F(-5, 7), F(10, 7), F(1)):
        assert h_alpha_beta(1, 1, tt) == 0
    with pytest.raises(ValueError):
        h_alpha_beta(2, 3, F(0))


def test_h_alpha_beta_recovers_kac_weights():
    for p, q in [(10, 7), (7, 4), (5, 3), (5, 4)]:
        model = MinimalModel(p, q)
        t = F(p, q)
        for r in range(1, q):
            for s in range(1, p):
                assert h_alpha_beta(r, s, t) == model.conformal_weight(L(r, s))


def test_singular_weight_ladder():
    m = MinimalModel(10, 7)
    expected = {
        (1, 1): (F(1), F(54)),
        (2, 1): (F(18, 7), F(319, 7)),
        (3, 1): (F(34, 7), F(265, 7)),
        (4, 1): (F(55, 7), F(216, 7)),
        (5, 1): (F(81, 7), F(172, 7)),
        (6, 1): (F(16), F(19)),
    }
    for (r, s), pair in expected.items():
        assert singular_weights(m, L(r, s)) == pair
    # Kac's levels against the general h_{alpha,beta}(t) at t = p/q, every label
    # of every model the CLI admits
    count = 0
    for p in range(3, MAX_PQ + 1):
        for q in range(3, MAX_PQ + 1):
            if p == q or gcd(p, q) != 1:
                continue
            m, t = MinimalModel(p, q), F(p, q)
            for r in range(1, q):
                for s in range(1, p):
                    reference = (h_alpha_beta(r, -s, t), h_alpha_beta(r - 2 * q, -s, t))
                    assert singular_weights(m, L(r, s)) == reference, (p, q, r, s)
                    count += 1
    assert count == 7960


def _monomial_route(numerator, euler_parts, eta_den, lead, order):
    """``series._character`` as products of series, the route it replaced.

    The theta numerator is a series summed from the public theta functions,
    one per ``(sign, residue)`` class of the plain-data numerator; it is
    multiplied by the ``_euler`` row as a series and then by the monomial
    q^(-1/eta_den), each through ``FracSeries.__mul__``.  The product knows
    at least as much as the character claims; it is cut after the target
    lead + order, with the integer pairs read as Fractions.
    """
    target = F(*lead) + order
    bound = floor(target + F(1, eta_den)) + 1
    (u, w), modulus, weighted, classes = numerator
    scale = F(u, w)
    num = None
    for sign, b in classes:
        if weighted:
            theta = weighted_theta(modulus, b, scale * modulus**2, bound)
        else:
            theta = theta_null(modulus // 2, b, bound)
        num = theta * sign if num is None else num + theta * sign
    out = num * FracSeries(1, 0, _euler(euler_parts, order))
    span = out.order - out.lowest
    out = out * monomial(1, -1, eta_den, eta_den * span // out.den + eta_den + 1)
    cut = floor(target * out.den) + 1
    return FracSeries(out.den, out.lowest, out.coeffs[: cut - out.lowest])


def _characters():
    """(name, series) for every canonical label of every coprime 3 <= p, q <= 11
    model at orders 0, 1, 5, 17, of every other coprime model up to
    ``cli.MAX_PQ`` at order 5, and every osp and sl2 module of levels 1-5 at
    orders 0, 3, 20, 60."""
    for p in range(3, MAX_PQ + 1):
        for q in range(3, MAX_PQ + 1):
            if p == q or gcd(p, q) != 1:
                continue
            model = MinimalModel(p, q)
            orders = (0, 1, 5, 17) if max(p, q) <= 11 else (5,)
            for lab in model.canonical_labels():
                for order in orders:
                    yield f"vir {p} {q} {lab} {order}", model.character(lab, order)
    for level in range(1, 6):
        for order in (0, 3, 20, 60):
            for mod in osp_modules(level):
                yield f"osp {mod} {order}", osp_character(mod, order)
            for i in range(level + 1):
                yield f"sl2 {level} {i} {order}", sl2_character(Sl2Label(level, i), order)


def test_character_shift_equals_monomial_route(monkeypatch):
    # one integer shift-and-add pass gives the same den, lowest, order, terms
    # and coefficient types as the products of the theta numerator, the Euler
    # series and the monomial
    def key(s):
        return s.den, s.lowest, s.order, s.terms, [type(c) for _, c in s.terms]

    shifted = [(name, key(s)) for name, s in _characters()]
    monkeypatch.setattr(minimal, "_character", _monomial_route)
    monkeypatch.setattr(affine, "_character", _monomial_route)
    multiplied = [(name, key(s)) for name, s in _characters()]
    assert len(shifted) == len(multiplied) == 3992 + 3022
    for (name, got), (_, want) in zip(shifted, multiplied):
        assert got == want, name


def test_character_is_exact_through_its_window_and_no_further():
    # each character claims exactly h - c/24 + order: one lattice step past
    # it, and so the next whole level, is unknown
    for name, s in _characters():
        order = int(name.split()[-1])
        top = s.leading_term()[0] + order
        assert s.order_exponent == top + F(1, s.den), name
        s.coeff(top)
        with pytest.raises(ValueError):
            s.coeff(top + 1)


@pytest.mark.parametrize("build", [
    lambda order: MinimalModel(10, 7).character(L(6, 1), order),
    lambda order: osp_character(OspLabel(2, 3), order),
    lambda order: sl2_character(Sl2Label(7, 5), order),
], ids=["vir", "osp", "sl2"])
@pytest.mark.parametrize("steps, levels", [(0, 1), (0, -1), (1, 0), (-1, 0)],
                         ids=["level-up", "level-down", "step-up", "step-down"])
def test_character_refuses_a_target_off_the_theta_route(monkeypatch, build, steps, levels):
    # the caller's integer lead h - c/24 must be the theta sum's leading term
    # over eta, so that lead + order sits exactly order levels above it; a
    # lead one level or one lattice step off is refused
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return series._character(*args, **kwargs)

    monkeypatch.setattr(minimal, "_character", recording)
    monkeypatch.setattr(affine, "_character", recording)
    good = build(4)
    args, kwargs = calls[0]
    lead = F(*kwargs["lead"]) + levels + F(steps, good.den)
    kwargs = {**kwargs, "lead": lead.as_integer_ratio()}
    with pytest.raises(RuntimeError, match="bookkeeping"):
        series._character(*args, **kwargs)


@pytest.mark.parametrize("order", [0, 3, 12])
def test_character_refuses_a_numerator_of_two_classes(order):
    # the residue-0 class, theta_null(1, 0), sits on whole levels and the
    # residue-1 class, theta_null(1, 1), 1/4 above them: the window check
    # passes on the leading term q^0, but the sum is not one integer-spaced
    # row, and is refused
    args = dict(euler_parts=((-1, -1),), eta_den=24, lead=(-1, 24), order=order)
    one = ((1, 4), 2, False, ((1, 0),))
    assert series._character(one, **args).leading_term() == (F(-1, 24), 1)
    with pytest.raises(RuntimeError, match="bookkeeping"):
        series._character(((1, 4), 2, False, ((1, 0), (1, 1))), **args)


@pytest.mark.parametrize("build", [
    lambda: MinimalModel(10, 7).character(L(2, 3), 40),
    lambda: osp_character(OspLabel(2, 3), 40),
    lambda: sl2_character(Sl2Label(7, 5), 40),
], ids=["vir", "osp", "sl2"])
def test_a_cold_character_build_makes_one_series(monkeypatch, build):
    # the theta numerator is read as integer terms, not built as series: the
    # character itself is the only FracSeries a cold build stores
    built, store = [], series._store

    def recording(*args):
        built.append(store(*args))
        return built[-1]

    monkeypatch.setattr(series, "_store", recording)
    series._character.cache_clear()
    got = build()
    assert len(built) == 1 and built[0] is got


@pytest.mark.parametrize("build", [
    lambda: MinimalModel(10, 7).character(L(2, 3), 12),
    lambda: osp_character(OspLabel(2, 3), 12),
    lambda: sl2_character(Sl2Label(7, 5), 12),
], ids=["vir", "osp", "sl2"])
def test_a_warm_lookup_and_a_row_read_make_no_fraction(monkeypatch, build):
    # the cache key holds only ints and coeff_row reads its start as integers:
    # neither a warm character lookup nor an on-lattice row read makes a
    # Fraction.  Python 3.12 and later build arithmetic results through
    # _from_coprime_ints, not __new__, so that is counted too where it exists
    cold = build()
    lead = cold.leading_term()[0]
    below = lead - 1
    made, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(lambda cls, *args: made.append(args) or coprime(*args)))
    assert build() is cold
    assert cold.coeff_row(lead, 13) == cold.row and len(cold.row) == 13
    assert cold.coeff_row(below, 14) == (0, *cold.row)
    assert made == []


def test_closed_integer_leads_equal_the_public_weights(monkeypatch):
    # the integer h - c/24 each character hands to series._character, against
    # the public Fraction route, for every label of every coprime 3 <= p, q <= 11
    # model and every osp(1|2) and sl2 module of levels 1-12
    leads = []
    monkeypatch.setattr(minimal, "_character", lambda *args, lead, **kwargs: leads.append(lead))
    monkeypatch.setattr(affine, "_character", lambda *args, lead, **kwargs: leads.append(lead))
    want = []
    for p in range(3, 12):
        for q in range(3, 12):
            if p != q and gcd(p, q) == 1:
                model = MinimalModel(p, q)
                for lab in (L(r, s) for r in range(1, q) for s in range(1, p)):
                    model.character(lab, 0)
                    want.append(model.conformal_weight(lab) - model.central_charge() / 24)
    for l in range(1, 13):
        for lab in osp_modules(l):
            osp_character(lab, 0)
            want.append(osp_weight(l, lab.r) - osp_central_charge(l) / 24)
            assert lab.lead == want[-1]
        for i in range(l + 1):
            sl2_character(Sl2Label(l, i), 0)
            want.append(sl2_weight(Sl2Label(l, i)) - sl2_central_charge(l) / 24)
    assert len(leads) == len(want) > 1000
    assert all(den > 0 for _, den in leads)
    assert [F(*lead) for lead in leads] == want


# --- supercharacter: the Andrews-Gordon product route -----------------------


def _lead(lab):
    return osp_weight(lab.l, lab.r) - osp_central_charge(lab.l) / 24


def _branch_difference(lab, order):
    return (branch_character(lab.l, lab.r, "even", order)
            - branch_character(lab.l, lab.r, "odd", order))


@pytest.mark.parametrize("l", range(1, 13))
def test_supercharacter_is_even_minus_odd(l):
    order = 40 if l <= 4 else 20
    for lab in osp_modules(l):
        got = affine._osp_supercharacter(lab, order)
        assert equal_through(got, _branch_difference(lab, order), _lead(lab) + order), lab


@pytest.mark.parametrize("l", [50, 100, 150])
def test_supercharacter_is_even_minus_odd_at_high_levels(l):
    for r in (1, 2 * l + 1):
        lab = OspLabel(l, r)
        got = affine._osp_supercharacter(lab, 5)
        assert equal_through(got, _branch_difference(lab, 5), _lead(lab) + 5), lab


def _rogers_ramanujan(shift, order):
    """Coefficients of q^0 .. q^order of sum_n q^(n^2 + shift*n) / (q;q)_n."""
    total = [0] * (order + 1)
    n = 0
    while n * n + shift * n <= order:
        row = [0] * (order + 1)
        row[n * n + shift * n] = 1
        for k in range(1, n + 1):  # divide by 1 - q^k
            for m in range(k, order + 1):
                row[m] += row[m - k]
        total = [a + b for a, b in zip(total, row)]
        n += 1
    return total


def test_level_one_supercharacters_are_the_rogers_ramanujan_sums():
    # M_1 gives G(q), M_3 gives -H(q), each times q^(h - c/24)
    for r, shift, sign in ((1, 0, 1), (3, 1, -1)):
        lab = OspLabel(1, r)
        got = affine._osp_supercharacter(lab, 40).coeff_row(_lead(lab), 41)
        assert list(got) == [sign * c for c in _rogers_ramanujan(shift, 40)], r


@pytest.mark.parametrize("order", [0, 1, 7])
def test_supercharacter_is_exact_through_its_window_and_no_further(order):
    for lab in osp_modules(3):
        s = affine._osp_supercharacter(lab, order)
        target = _lead(lab) + order
        assert s.order_exponent == target + F(1, s.den)
        assert s.coeff(target) == s.coeff_row(target, 1)[0]
        with pytest.raises(ValueError):
            s.coeff(s.order_exponent)


def _product_row(a, i, sign, order):
    """sign * prod 1/(1 - q^n) over n >= 1, n != 0, +-i (mod a), through q^order."""
    row = [sign] + [0] * order
    for n in range(1, order + 1):
        if n % a not in (0, i % a, -i % a):
            for m in range(n, order + 1):
                row[m] += row[m - n]
    return row


def test_supercharacter_variants_fail():
    # the identity pins i and the sign: i +- 1 and the unsigned product differ
    # from even - odd wherever they change the product at all
    order, shifted, unsigned = 20, 0, 0
    for l in range(1, 5):
        a = 2 * l + 3
        for lab in osp_modules(l):
            i, sign = (a - lab.r) // 2, (-1) ** ((lab.r - 1) // 2)
            diff = list(_branch_difference(lab, order).coeff_row(_lead(lab), order + 1))
            assert _product_row(a, i, sign, order) == diff
            got = affine._osp_supercharacter(lab, order)
            assert list(got.coeff_row(_lead(lab), order + 1)) == diff
            for j in (i - 1, i + 1):
                # i + 1 = a - i when r = 1: the same excluded residues
                if {j % a, -j % a} != {i, a - i}:
                    assert _product_row(a, j, sign, order) != diff, (lab, j)
                    shifted += 1
            if sign == -1:
                assert _product_row(a, i, 1, order) != diff, lab
                unsigned += 1
    # 14 modules, less one i + 1 per level; r = 3 and 7 carry the sign -1
    assert (shifted, unsigned) == (2 * 14 - 4, 6)
