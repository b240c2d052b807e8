import itertools
import json
from collections import Counter
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cosetchar import extension
from cosetchar.coset import COSET_DECOMPOSITION
from cosetchar.extension import (
    MODEL,
    SIMPLE_CURRENT,
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


@pytest.mark.parametrize("r, s", [(9, 9), (0, 0), (4, 1), (0, 5), (1, 0), (2, 10), (-1, 3)])
def test_ext_label_refuses_a_label_outside_the_presented_range(r, s):
    # the presented labels are r in 1..3, s in 1..9; the 7-r presentation
    # goes through ext_label
    with pytest.raises(ValueError, match="is not an irreducible extended label"):
        ExtLabel(r, s)
    with pytest.raises(ValueError, match="is not an irreducible extended label"):
        ExtModuleSum({ExtLabel(r, s): 1})


def test_ext_label_reads_its_fields_as_ints():
    for r, s in [(1.5, 2), (2, 3.0), (2.0, 3), (Fraction(2), 3)]:
        with pytest.raises(TypeError):
            ExtLabel(r, s)
    assert ExtLabel(True, 2) == ExtLabel(1, 2)  # a bool is an int, as an order is


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


def test_cached_products_still_warn_on_every_fixed_point_call():
    # the induced product is cached, the warning is not: it fires once per
    # fixed-point argument on every call, cold or warm, in either order and
    # for every constituent choice
    extension._induced.cache_clear()
    labels = ext_irreducibles()
    for state in ("cold", "warm"):
        for a, b in itertools.product(labels, repeat=2):
            for i, j in itertools.product((0, 1), repeat=2):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = ext_fuse(a, b, i, j)
                    assert ext_fuse(b, a, j, i) is out, (state, a, b, i, j)
                want = [f"{lab} is a fixed point; fusion is formal bookkeeping"
                        for lab in (a, b, b, a) if lab.fixed_point]
                assert [str(w.message) for w in caught] == want, (state, a, b, i, j)
                assert all(w.category is FixedPointFusionWarning for w in caught)
    assert extension._induced.cache_info().misses == 378


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


def test_monodromy_census():
    # monodromy charge Q(x) = h(J x) - h(x) mod 1 of the simple current
    # J = (6,1): untwisted orbits (Q = 0) are ordinary modules of the
    # extension, twisted ones (Q = 1/2) are Z2-twisted, and fusion is graded
    labels = MODEL.canonical_labels()

    def charge(x):
        ((jx, _),) = MODEL.fuse(SIMPLE_CURRENT, x)
        return (MODEL.conformal_weight(jx) - MODEL.conformal_weight(x)) % 1

    q = {x: charge(x) for x in labels}
    assert set(q.values()) == {0, Fraction(1, 2)}
    orbits, fixed = classify_ext_modules()
    twisted = [o for o in orbits if q[o.constituents[0]]]
    assert twisted == [ext_label(r, s) for r in (1, 2, 3) for s in (2, 4)]
    assert all(q[o.constituents[1]] == q[o.constituents[0]] for o in orbits)
    assert all(q[x] == 0 for x in fixed)
    assert all(q[MODEL.canon(v)] == 0 for _, labs in COSET_DECOMPOSITION for v in labs)
    for a, b in itertools.product(labels, repeat=2):
        for c, _ in MODEL.fuse(a, b):
            assert q[c] == (q[a] + q[b]) % 1, (a, b, c)


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


def _su2_fusion(a, b, k):
    """su(2)_k fusion range of the 1-based labels a = 2j+1 and b."""
    return range(abs(a - b) + 1, min(a + b, 2 * k + 4 - a - b), 2)


def test_factorised_fold_oracle():
    # the extended product as the su(2)_5 range on r, folded by r -> min(r, 7-r),
    # times the su(2)_8 range on s, folded by s -> min(s, 10-s): no Kac
    # identification, no minimal-model product and no orbit rule of the
    # package.  Constituent 1 of the presented label (r, s) is its
    # simple-current image, taken here as the Kac label (7-r, s)
    def oracle(a, b, i, j):
        (ra, sa), (rb, sb) = a, b
        ra, rb = (7 - ra if i else ra), (7 - rb if j else rb)
        folded = Counter((min(r, 7 - r), min(s, 10 - s))
                         for r in _su2_fusion(ra, rb, 5) for s in _su2_fusion(sa, sb, 8))
        return [{"r": r, "s": s, "mult": m} for (r, s), m in sorted(folded.items())]

    labels = [(r, s) for r in range(1, 4) for s in range(1, 10)]
    pairs = list(itertools.product(labels, repeat=2))
    table = fusion_table()
    assert [(e["a"], e["b"]) for e in table] == [([*a], [*b]) for a, b in pairs]
    for entry, (a, b) in zip(table, pairs):
        assert entry["result"] == oracle(a, b, 0, 0), (a, b)
        for i, j in itertools.product((0, 1), repeat=2):
            got = ext_fuse(ExtLabel(*a), ExtLabel(*b), i, j).to_json()
            assert got == oracle(a, b, i, j), (a, b, i, j)


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


@pytest.mark.parametrize("mult", [1.5, 1.0, Fraction(1), "1", None, True, False])
@pytest.mark.parametrize("cls, keys, twins", MULTISETS)
def test_multiset_rejects_non_int_multiplicities(cls, keys, twins, mult):
    with pytest.raises(TypeError, match="is not an int"):
        cls({keys[0]: mult})
    # equality with a dict follows the constructor: such a dict equals nothing
    assert cls({keys[0]: 1}) != {keys[0]: mult}
    assert cls({}) != {keys[0]: mult}


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


@pytest.mark.parametrize(
    "ms, other",
    [
        pytest.param(MODEL.fuse(L(2, 1), L(2, 1)), {L(1, 1): -1}, id="negative-mult"),
        pytest.param(MODEL.fuse(L(2, 1), L(2, 1)), {L(1, 1): "1"}, id="non-int-mult"),
        pytest.param(MODEL.fuse(L(1, 1), L(1, 1)), {ExtLabel(1, 1): 1}, id="ext-key-in-vir"),
        pytest.param(ExtModuleSum({ext_label(1, 1): 1}), {"x": 1}, id="foreign-key"),
        pytest.param(ExtModuleSum({ext_label(1, 1): 1}), {L(1, 1): 1}, id="kac-key-in-ext"),
    ],
)
def test_multiset_never_equals_dict_of_other_labels(ms, other):
    # a dict that is not a valid multiset of this class's labels compares
    # unequal instead of raising or being read as the other label kind
    assert not ms == other
    assert ms != other


def test_ext_module_sum_folds_orbits():
    ms = ExtModuleSum({ExtLabel(1, 2): 1, ExtLabel(1, 8): 2})
    assert list(ms) == [(ExtLabel(1, 2), 3)]
    assert ms[ExtLabel(1, 8)] == 3 and ms[ExtLabel(1, 2)] == 3
    assert ms == {ExtLabel(1, 8): 3}


def test_module_sum_never_equals_ext_module_sum():
    # the same (r, s) pairs, each class with its own label kind
    pairs = {(1, 1): 1, (2, 3): 2}
    vir = ModuleSum({L(r, s): m for (r, s), m in pairs.items()})
    ext = ExtModuleSum({ExtLabel(r, s): m for (r, s), m in pairs.items()})
    assert vir != ext
    assert ext != vir
    assert ModuleSum({}) != ExtModuleSum({})


@pytest.mark.parametrize(
    "cls, key",
    [
        pytest.param(ModuleSum, ExtLabel(1, 1), id="ext-key-in-vir"),
        pytest.param(ModuleSum, (1, 1), id="tuple-key-in-vir"),
        pytest.param(ModuleSum, "x", id="str-key-in-vir"),
        pytest.param(ExtModuleSum, L(1, 9), id="kac-key-in-ext"),
        pytest.param(ExtModuleSum, "x", id="str-key-in-ext"),
    ],
)
def test_multiset_rejects_keys_of_another_kind(cls, key):
    with pytest.raises(TypeError, match="is not of type"):
        cls({key: 1})


def test_module_sums_of_different_classes_do_not_add():
    for vir, ext in itertools.product(
        (ModuleSum({L(1, 1): 1}), ModuleSum({})),
        (ExtModuleSum({ExtLabel(1, 1): 1}), ExtModuleSum({})),
    ):
        with pytest.raises(TypeError):
            vir + ext
        with pytest.raises(TypeError):
            ext + vir


@pytest.mark.parametrize("cls, keys, twins", MULTISETS)
def test_adding_an_empty_multiset_gives_the_other_operand(cls, keys, twins):
    a, b, _ = keys
    full, empty = cls({a: 1, b: 2}), cls({})
    for total in (full + empty, empty + full, empty + empty):
        assert type(total) is cls
        with pytest.raises(TypeError):
            total.mults[a] = 5
    assert full + empty == empty + full == full == {a: 1, b: 2}
    assert list(full + empty) == list(empty + full) == [(a, 1), (b, 2)]
    assert empty + empty == {} and len(empty + empty) == 0


@pytest.mark.parametrize("build", [
    pytest.param(lambda: MODEL.fuse(L(2, 1), L(2, 1)), id="fuse"),
    pytest.param(lambda: ext_fuse(ext_label(2, 1), ext_label(3, 3)), id="ext_fuse"),
])
def test_cached_products_refuse_rebinding_deleting_and_new_attributes(build):
    # a rebound mults on the shared product would change every later lookup
    out = build()
    before = dict(out.mults)
    for attempt in (lambda: setattr(out, "mults", {}), lambda: delattr(out, "mults"),
                    lambda: setattr(out, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    again = build()
    assert again is out and dict(again.mults) == before and before
    assert not hasattr(out, "extra")


def test_ext_fuse_equals_validating_constructor():
    # the trusted fold in ext_fuse against the public constructor's fold of
    # the same constituent product, for every pair and constituent choice
    labels = ext_irreducibles()
    for a, b in itertools.product(labels, repeat=2):
        for i, j in itertools.product((0, 1), repeat=2):
            va, vb = a.constituents[i], b.constituents[j]
            want = ExtModuleSum({ExtLabel(lab.r, lab.s): m for lab, m in MODEL.fuse(va, vb)})
            got = ext_fuse(a, b, i, j)
            assert got == want and list(got) == list(want), (a, b, i, j)


_MULTS = st.integers(0, 3)
_KAC_DICTS = st.dictionaries(st.builds(L, st.integers(1, 6), st.integers(1, 9)), _MULTS)
_EXT_DICTS = st.dictionaries(st.builds(ExtLabel, st.integers(1, 3), st.integers(1, 9)), _MULTS)


@given(data=st.one_of(st.tuples(st.just(ModuleSum), _KAC_DICTS, _KAC_DICTS),
                      st.tuples(st.just(ExtModuleSum), _EXT_DICTS, _EXT_DICTS)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sum_equals_constructor_over_merged_dict(data):
    cls, x, y = data
    merged = {k: x.get(k, 0) + y.get(k, 0) for k in {**x, **y}}
    total, want = cls(x) + cls(y), cls(merged)
    assert type(total) is cls
    assert total == want and list(total) == list(want)


def test_constituents_computed_once_and_label_unchanged():
    for r, s in itertools.product(range(1, 4), range(1, 10)):
        fresh = ExtLabel(r, s)
        pair = fresh.constituents
        assert pair == (MODEL.canon(L(r, s)), MODEL.canon(L(7 - r, s)))
        assert fresh.constituents is pair
        # equality, hash, order and repr see only the fields
        untouched = ExtLabel(r, s)
        assert fresh == untouched and hash(fresh) == hash(untouched)
        assert not fresh < untouched and not untouched < fresh
        assert repr(fresh) == repr(untouched) == f"ExtLabel(r={r}, s={s})"
