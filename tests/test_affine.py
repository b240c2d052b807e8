import json
from fractions import Fraction
from math import gcd

import pytest

from cosetchar import affine, minimal
from cosetchar.affine import (
    BranchTerm,
    OspLabel,
    Sl2Label,
    branch_character,
    branch_model,
    branch_terms,
    branch_weight,
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
from cosetchar.series import FracSeries, _ceil, _euler, equal_through, monomial

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


def test_label_validation():
    with pytest.raises(ValueError):
        OspLabel(2, 2)  # even r
    with pytest.raises(ValueError):
        OspLabel(2, 7)  # out of range
    with pytest.raises(ValueError):
        Sl2Label(2, 3)
    with pytest.raises(ValueError):
        Sl2Label(0, 0)


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
    # margin in the theta bound must be at least 1
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
], ids=["vir", "osp", "sl2", "branch"])
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
    with pytest.raises(ValueError):
        BranchTerm(Sl2Label(2, 0), L(2, 3), "even")  # row must be i+1
    with pytest.raises(ValueError):
        BranchTerm(Sl2Label(2, 1), L(2, 3), "even")  # parity mismatch


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


def test_branch_weights():
    assert branch_weight(2, 0, 3) == F(1, 7)
    assert branch_weight(2, 1, 3) == F(1, 7)
    assert branch_weight(2, 1, 5) == F(3, 7)
    assert branch_weight(2, 2, 5) == F(3, 7)
    assert branch_weight(2, 0, 5) == F(10, 7)
    for l in (1, 2, 3, 4):
        assert branch_weight(l, 0, 1) == 0


def test_branch_weight_agrees_with_sl2_plus_vir():
    for l in (1, 2, 3):
        model = branch_model(l)
        for r in range(1, 2 * l + 2, 2):
            for i in range(l + 1):
                expected = sl2_weight(Sl2Label(l, i)) + model.conformal_weight(L(i + 1, r))
                assert branch_weight(l, i, r) == expected


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


def _monomial_route(numerator, euler_parts, eta_den, target, order):
    """``series._character`` as products of series, the route it replaced.

    The theta numerator is a series summed from the public theta functions; it
    is multiplied by the ``_euler`` row as a series and then by the monomial
    q^(-1/eta_den), each through ``FracSeries.__mul__``.
    """
    bound = _ceil(target + F(1, eta_den)) + 2
    num = None
    for sign, theta, args in numerator:
        term = theta(*args, bound) * sign
        num = term if num is None else num + term
    out = num * FracSeries(1, 0, _euler(euler_parts, order + 2))
    span = out.order - out.lowest
    return out * monomial(1, -1, eta_den, eta_den * span // out.den + eta_den + 1)


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
