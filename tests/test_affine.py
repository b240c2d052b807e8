import json
from fractions import Fraction

import pytest

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
from cosetchar.minimal import KacLabel, MinimalModel
from cosetchar.series import equal_through

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
    for l in (1, 2):
        for lab in osp_modules(l):
            even = branch_character(l, lab.r, "even", 20)
            odd = branch_character(l, lab.r, "odd", 20)
            total = osp_character(lab, 20)
            assert even + odd == total, (l, lab.r)


def test_branch_character_both_equals_osp():
    branch = branch_character(2, 3, "both", 12)
    osp = osp_character(OspLabel(2, 3), 12)
    top = osp_weight(2, 3) - osp_central_charge(2) / 24 + 12
    assert equal_through(branch, osp, top)


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
