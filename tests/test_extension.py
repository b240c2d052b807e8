import itertools
import json
import warnings

import pytest

from cosetchar.extension import (
    ExtLabel,
    ExtModuleSum,
    FixedPointFusionWarning,
    classify_ext_modules,
    ext_fuse,
    ext_irreducibles,
    ext_label,
    fusion_table,
    simple_current_image,
)
from cosetchar.minimal import KacLabel, ModuleSum

L = KacLabel


@pytest.fixture(autouse=True)
def quiet_fixed_point_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FixedPointFusionWarning)
        yield


def test_simple_current_image_examples():
    assert simple_current_image(L(1, 1)) == L(1, 9)  # the current itself
    assert simple_current_image(L(2, 3)) == L(2, 7)
    assert simple_current_image(L(2, 7)) == L(2, 3)
    assert simple_current_image(L(3, 5)) == L(3, 5)  # fixed point
    with pytest.raises(ValueError):
        simple_current_image(L(7, 1))


def test_simple_current_image_is_involution_with_three_fixed_points():
    fixed = []
    for r in range(1, 4):
        for s in range(1, 10):
            lab = L(r, s)
            image = simple_current_image(lab)
            assert simple_current_image(image) == lab
            if image == lab:
                fixed.append(lab)
    assert fixed == [L(1, 5), L(2, 5), L(3, 5)]


def test_classification_census():
    orbits, fixed = classify_ext_modules()
    assert len(orbits) == 12
    assert fixed == [L(1, 5), L(2, 5), L(3, 5)]
    assert 2 * len(orbits) + len(fixed) == 27
    assert all(not o.fixed_point for o in orbits)


def test_irreducible_list():
    labels = ext_irreducibles()
    assert len(labels) == 27
    assert all(1 <= lab.r <= 3 and 1 <= lab.s <= 9 for lab in labels)
    vac = ext_label(1, 1)
    assert vac.constituents == (L(1, 1), L(1, 9))
    assert vac.weights == (0, 10)
    assert ext_label(3, 1).constituents == (L(3, 1), L(3, 9))
    # the two constituent weights 13/7 and 27/7 differ by an integer
    w1, w2 = ext_label(3, 1).weights
    assert (w2 - w1).denominator == 1
    # every presented label with s != 5 shares its module with the s -> 10-s one
    for lab in labels:
        if lab.s == 5:
            continue
        partner = ExtLabel(lab.r, 10 - lab.s)
        assert lab.orbit() == partner.orbit()
        assert set(lab.constituents) == set(partner.constituents)


def test_r_presentation_normalization():
    assert ext_label(5, 4) == ext_label(2, 4)
    assert ext_label(6, 1) == ext_label(1, 1)
    with pytest.raises(ValueError):
        ext_label(0, 1)
    with pytest.raises(ValueError):
        ext_label(2, 10)


def test_unit_and_simple_current_act_trivially():
    unit = ext_label(1, 1)
    current_lift = ext_label(1, 9)  # V(6,1) + V(1,1), same orbit as the algebra
    for x in ext_irreducibles():
        assert ext_fuse(unit, x) == {x: 1}
        assert ext_fuse(current_lift, x) == {x: 1}


def test_fuse_example():
    assert ext_fuse(ext_label(1, 1), ext_label(3, 4)) == {ext_label(3, 4): 1}


def test_constituent_choice_independence_exhaustive():
    labels = ext_irreducibles()
    for a, b in itertools.product(labels, repeat=2):
        base = ext_fuse(a, b)
        for ca, cb in ((0, 1), (1, 0), (1, 1)):
            assert ext_fuse(a, b, ca, cb) == base, (a, b, ca, cb)


def _n_admissible(s, s1, s2):
    total = s + s1 + s2
    return int(
        1 <= s2 <= 9 and abs(s - s1) < s2 < s + s1 and total % 2 == 1 and total <= 19
    )


@pytest.mark.parametrize(
    "ra,rb,r_out",
    [(5, 5, (1, 3)), (3, 3, (1, 3, 5)), (3, 5, (3, 5))],
)
def test_displayed_fusion_families(ra, rb, r_out):
    # oracle: collapse the r index to the displayed pattern and apply the
    # column admissibility rule to the s indices
    for s, s1 in itertools.product(range(1, 10), repeat=2):
        expected: dict[ExtLabel, int] = {}
        for s2 in range(1, 10):
            if _n_admissible(s, s1, s2):
                for r2 in r_out:
                    key = ext_label(r2, s2).orbit()
                    expected[key] = expected.get(key, 0) + 1
        got = ext_fuse(ext_label(ra, s), ext_label(rb, s1))
        assert got == expected, (ra, rb, s, s1)


def test_orbit_multiplicities_can_exceed_one():
    # both members of an orbit can appear in one constituent fusion
    out = ext_fuse(ext_label(5, 4), ext_label(5, 6))
    assert out[ext_label(1, 3)] == 2
    assert out[ext_label(1, 7)] == 2  # same orbit, same count
    assert out[ext_label(1, 1)] == 1
    assert out[ext_label(1, 5)] == 1


def test_commutative_and_associative_over_non_fixed_orbits():
    orbits, _ = classify_ext_modules()
    table = {
        (a, b): ext_fuse(a, b) for a, b in itertools.product(orbits, repeat=2)
    }
    for a, b in itertools.product(orbits, repeat=2):
        assert table[(a, b)] == table[(b, a)]

    def fuse_with_sum(ms: ExtModuleSum, c: ExtLabel) -> ExtModuleSum:
        out = ExtModuleSum({})
        for lab, m in ms:
            prod = ext_fuse(lab, c)
            out = out + ExtModuleSum({k: v * m for k, v in prod.mults.items()})
        return out

    for a, b, c in itertools.product(orbits, repeat=3):
        assert fuse_with_sum(table[(a, b)], c) == fuse_with_sum(ext_fuse(b, c), a)


def test_fixed_point_inputs_warn():
    with pytest.warns(FixedPointFusionWarning):
        ext_fuse(ext_label(1, 5), ext_label(1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ext_fuse(ext_label(1, 4), ext_label(1, 6))  # no warning off fixed points


def test_integer_weight_gap_scan():
    # constituent weights differ by an integer exactly on the odd-s orbits;
    # the three s=1 orbits among them are the ones paired in the vacuum
    # decomposition of the tensor square
    orbits, _ = classify_ext_modules()
    integer_gap = [o for o in orbits if (o.weights[1] - o.weights[0]).denominator == 1]
    assert integer_gap == [
        ext_label(1, 1), ext_label(1, 3),
        ext_label(2, 1), ext_label(2, 3),
        ext_label(3, 1), ext_label(3, 3),
    ]
    assert all(o.s % 2 == 1 for o in integer_gap)
    decomposition_orbits = {(o.r, o.s): o.weights[1] - o.weights[0]
                            for o in integer_gap if o.s == 1}
    assert decomposition_orbits == {(1, 1): 10, (2, 1): 6, (3, 1): 2}


@pytest.mark.parametrize("ca, cb", [(2, 0), (0, 2), (-1, 0), (0, -1)])
def test_ext_fuse_rejects_constituent_index(ca, cb):
    with pytest.raises(ValueError, match="constituent index"):
        ext_fuse(ext_label(1, 1), ext_label(2, 3), ca, cb)


def test_fusion_table_deterministic_json():
    table = fusion_table()
    assert len(table) == 27 * 27
    assert table[0]["a"] == [1, 1] and table[0]["b"] == [1, 1]
    assert table[0]["result"] == [{"r": 1, "s": 1, "mult": 1}]
    assert json.dumps(table) == json.dumps(fusion_table())


# (class, three keys in ascending order, two keys that fold together under
# ExtModuleSum: a Kac pair for ModuleSum, an orbit pair for ExtModuleSum)
MULTISETS = [
    pytest.param(ModuleSum, (L(1, 1), L(2, 3), L(3, 5)), (L(1, 2), L(6, 8)), id="ModuleSum"),
    pytest.param(
        ExtModuleSum,
        (ExtLabel(1, 1), ExtLabel(2, 3), ExtLabel(3, 5)),
        (ExtLabel(1, 2), ExtLabel(1, 8)),
        id="ExtModuleSum",
    ),
]


@pytest.mark.parametrize("cls, keys, twins", MULTISETS)
def test_multiset_rejects_negative_multiplicities(cls, keys, twins):
    with pytest.raises(ValueError):
        cls({keys[0]: -1, keys[1]: 2})
    # a fold that would cancel the negative entry must not hide it
    with pytest.raises(ValueError):
        cls({twins[0]: -1, twins[1]: 2})


@pytest.mark.parametrize("cls, keys, twins", MULTISETS)
def test_multiset_drops_zeros_and_sorts_keys(cls, keys, twins):
    a, b, c = keys
    ms = cls({c: 1, a: 0, b: 2})
    assert list(ms) == [(b, 2), (c, 1)]
    assert len(ms) == 2 and ms[a] == 0 and ms[b] == 2


@pytest.mark.parametrize("cls, keys, twins", MULTISETS)
def test_multiset_equals_dict(cls, keys, twins):
    a, b, _ = keys
    assert cls({b: 2, a: 1}) == {a: 1, b: 2}
    assert cls({b: 2}) == {b: 2, a: 0}
    assert cls({b: 2}) != {b: 1}
    assert cls({}) == {}


@pytest.mark.parametrize("cls, keys, twins", MULTISETS)
def test_multiset_repr_names_its_class(cls, keys, twins):
    a, _, c = keys
    assert repr(cls({c: 1, a: 2})) == f"<{cls.__name__} 2*{a} + {c}>"
    assert repr(cls({})) == f"<{cls.__name__} 0>"


def test_ext_module_sum_folds_orbits():
    ms = ExtModuleSum({ExtLabel(1, 2): 1, ExtLabel(1, 8): 2})
    assert list(ms) == [(ExtLabel(1, 2), 3)]
    assert ms[ExtLabel(1, 8)] == 3 and ms[ExtLabel(1, 2)] == 3
    assert ms == {ExtLabel(1, 8): 3}


def test_module_sum_never_equals_ext_module_sum():
    mults = {ExtLabel(1, 1): 1, ExtLabel(2, 3): 2}
    assert ModuleSum(mults) != ExtModuleSum(mults)
    assert ExtModuleSum(mults) != ModuleSum(mults)
    assert ModuleSum({}) != ExtModuleSum({})
