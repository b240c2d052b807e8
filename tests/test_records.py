"""The package's immutable records, as callers see them.

``MinimalModel``, ``OspLabel``, ``Sl2Label``, ``BranchTerm``, ``Comparison``,
``VerificationReport`` and ``ExtLabel``: their constructors, repr and str,
equality and hash within a kind and never across kinds, ``ExtLabel``'s
ordering, their refusal to change, and each construction refusal with its
exception and message.  Also: importing the command line in a fresh
interpreter loads neither ``dataclasses``, ``inspect`` nor ``typing``.
"""

import copy
import itertools
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from cosetchar.affine import BranchTerm, OspLabel, Sl2Label
from cosetchar.coset import Comparison, VerificationReport
from cosetchar.extension import ExtLabel, ExtModuleSum
from cosetchar.minimal import KacLabel, MinimalModel, ModuleSum

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT = VerificationReport("central-charge", 0, (("c", (Fraction(8, 35),)),),
                            ((Fraction(0), (1,), (1,)),))

# (record, its fields in order, its repr, a record of the same kind with other fields)
RECORDS = [
    pytest.param(MinimalModel(10, 7), (10, 7), "MinimalModel(p=10, q=7)",
                 MinimalModel(7, 10), id="MinimalModel"),
    pytest.param(OspLabel(2, 3), (2, 3), "OspLabel(l=2, r=3)", OspLabel(2, 5), id="OspLabel"),
    pytest.param(Sl2Label(2, 1), (2, 1), "Sl2Label(l=2, i=1)", Sl2Label(2, 2), id="Sl2Label"),
    pytest.param(BranchTerm(2, 1, 3), (2, 1, 3), "BranchTerm(l=2, i=1, r=3)",
                 BranchTerm(2, 0, 3), id="BranchTerm"),
    pytest.param(Comparison(Fraction(-1, 30), 1, 1), (Fraction(-1, 30), 1, 1),
                 "Comparison(exponent=Fraction(-1, 30), lhs=1, rhs=1)",
                 Comparison(Fraction(-1, 30), 1, 2), id="Comparison"),
    pytest.param(REPORT, ("central-charge", 0, (("c", (Fraction(8, 35),)),),
                          ((Fraction(0), (1,), (1,)),), ()),
                 "VerificationReport(check='central-charge', order=0, "
                 "rows=(('c', (Fraction(8, 35),)),), checks=((Fraction(0, 1), (1,), (1,)),), "
                 "notes=())",
                 VerificationReport("central-charge", 0, (), (), ("a note",)),
                 id="VerificationReport"),
    pytest.param(ExtLabel(1, 2), (1, 2), "ExtLabel(r=1, s=2)", ExtLabel(2, 1), id="ExtLabel"),
]


@pytest.mark.parametrize("record, fields, text, other", RECORDS)
def test_repr_names_every_field(record, fields, text, other):
    assert repr(record) == text
    if type(record) is not ExtLabel:  # the only record with a str of its own
        assert str(record) == text
    rebuilt = type(record)(*fields)
    assert rebuilt == record and repr(rebuilt) == text


@pytest.mark.parametrize("record, fields, text, other", RECORDS)
def test_equal_and_hashed_by_fields_within_a_kind(record, fields, text, other):
    twin = type(record)(*fields)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields)
    assert other != record and not other == record
    assert len({record, twin, other}) == 2


@pytest.mark.parametrize("record, fields, text, other", RECORDS)
def test_refuses_setting_deleting_and_new_attributes(record, fields, text, other):
    name = text[text.index("(") + 1:text.index("=")]  # the first field
    for attempt in (lambda: setattr(record, name, 0), lambda: delattr(record, name),
                    lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(record, name) == fields[0] and not hasattr(record, "extra")


@pytest.mark.parametrize("record, fields, text, other", RECORDS)
def test_copies_and_pickles_to_an_equal_record(record, fields, text, other):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == text


@pytest.mark.parametrize("record, fields, text, other",
                         [param for param in RECORDS if param.id != "ExtLabel"])
def test_only_extlabel_is_ordered(record, fields, text, other):
    with pytest.raises(TypeError):
        record < other  # noqa: B015


def test_keyword_and_default_arguments():
    assert MinimalModel(p=10, q=7) == MinimalModel(10, q=7) == MinimalModel(q=7, p=10)
    assert ExtLabel(s=2, r=1) == ExtLabel(1, 2)
    assert REPORT.notes == () and VerificationReport(
        check="c", order=1, rows=(), checks=(), notes=("n",)).notes == ("n",)
    for call in (lambda: MinimalModel(10), lambda: MinimalModel(10, 7, 3),
                 lambda: MinimalModel(10, p=7), lambda: MinimalModel(10, r=7),
                 lambda: VerificationReport("c", 0, ()), lambda: OspLabel()):
        with pytest.raises(TypeError):
            call()


def test_kinds_never_compare_equal():
    osp, sl2 = OspLabel(1, 1), Sl2Label(1, 1)
    assert osp != sl2 and sl2 != osp and hash(osp) == hash(sl2)
    assert len({osp, sl2}) == 2
    ext, kac = ExtLabel(1, 1), KacLabel(1, 1)
    assert ext != kac and kac != ext and ext != (1, 1) and (1, 1) != ext
    assert kac == (1, 1)  # a KacLabel is a tuple
    assert {ext: "ext", kac: "kac"} == {ExtLabel(1, 1): "ext", (1, 1): "kac"}
    kind = lru_cache(maxsize=None)(type)
    assert [kind(x) for x in (ext, kac, osp, sl2, ext)] == [
        ExtLabel, KacLabel, OspLabel, Sl2Label, ExtLabel]
    assert ModuleSum({kac: 1})[ext] == 0 and ExtModuleSum({ext: 1})[ExtLabel(1, 1)] == 1
    assert ModuleSum({kac: 1}) != ExtModuleSum({ext: 1})
    for cls, key in ((ModuleSum, ext), (ExtModuleSum, kac), (ExtModuleSum, (1, 1))):
        with pytest.raises(TypeError, match="is not of type"):
            cls({key: 1})


def test_extlabel_orders_by_fields_against_extlabels_only():
    labels = [ExtLabel(r, s) for r, s in itertools.product(range(1, 4), range(1, 10))]
    assert sorted(reversed(labels)) == labels
    a, b = ExtLabel(1, 9), ExtLabel(2, 1)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or b <= a or a > b or a >= b or a < a or a > a)
    for other in (KacLabel(1, 1), (1, 1), OspLabel(1, 1)):
        for compare in (lambda: a < other, lambda: a <= other, lambda: a > other,
                        lambda: a >= other, lambda: other < a, lambda: other >= a):
            with pytest.raises(TypeError):
                compare()


def test_cached_properties_are_lazy_and_kept():
    label, term = ExtLabel(2, 3), BranchTerm(2, 1, 3)
    assert "constituents" not in vars(label) and "weight" not in vars(term)
    assert label.constituents is label.constituents
    assert term.weight is term.weight == Fraction(1, 7)
    assert vars(label)["constituents"] is label.constituents
    assert vars(term)["weight"] is term.weight
    # the cached values are not fields
    assert label == ExtLabel(2, 3) and repr(term) == "BranchTerm(l=2, i=1, r=3)"
    for record, name in ((label, "constituents"), (term, "weight")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


NOT_AN_INT = "'float' object cannot be interpreted as an integer"


@pytest.mark.parametrize("build, error, message", [
    # MinimalModel: the range first, then distinct and coprime
    (lambda: MinimalModel(2, 7), ValueError, "need p, q >= 3, got (2, 7)"),
    (lambda: MinimalModel(2, 2), ValueError, "need p, q >= 3, got (2, 2)"),
    (lambda: MinimalModel(7, 7), ValueError, "p and q must be distinct and coprime, got (7, 7)"),
    (lambda: MinimalModel(6, 4), ValueError, "p and q must be distinct and coprime, got (6, 4)"),
    # Sl2Label: the level, then i
    (lambda: Sl2Label(0, 0), ValueError, "level must be a positive integer"),
    (lambda: Sl2Label(0, 5), ValueError, "level must be a positive integer"),
    (lambda: Sl2Label(1.0, 0), TypeError, NOT_AN_INT),
    (lambda: Sl2Label(2, 3), ValueError, "i must lie in 0..2, got 3"),
    (lambda: Sl2Label(2, -1), ValueError, "i must lie in 0..2, got -1"),
    (lambda: Sl2Label(2, 1.0), TypeError, NOT_AN_INT),
    # OspLabel: the level (through Sl2Label), then r
    (lambda: OspLabel(0, 2), ValueError, "level must be a positive integer"),
    (lambda: OspLabel(1.0, 1), TypeError, NOT_AN_INT),
    (lambda: OspLabel(1, 2), ValueError, "r must be odd in 1..3, got 2"),
    (lambda: OspLabel(1, 5), ValueError, "r must be odd in 1..3, got 5"),
    (lambda: OspLabel(1, -1), ValueError, "r must be odd in 1..3, got -1"),
    (lambda: OspLabel(1, 1.0), TypeError, NOT_AN_INT),
    # BranchTerm: Sl2Label(l, i), then OspLabel(l, r)
    (lambda: BranchTerm(0, 0, 1), ValueError, "level must be a positive integer"),
    (lambda: BranchTerm(1, 2, 2), ValueError, "i must lie in 0..1, got 2"),
    (lambda: BranchTerm(1, 0, 2), ValueError, "r must be odd in 1..3, got 2"),
    # ExtLabel: its message prints the label's str
    (lambda: ExtLabel(0, 1), ValueError, "Ext(0,1) is not an irreducible extended label"),
    (lambda: ExtLabel(4, 1), ValueError, "Ext(4,1) is not an irreducible extended label"),
    (lambda: ExtLabel(1, 10), ValueError, "Ext(1,10) is not an irreducible extended label"),
    (lambda: ExtLabel(1.0, 1), TypeError, NOT_AN_INT),
    (lambda: ExtLabel(1, 1.0), TypeError, NOT_AN_INT),
])
def test_construction_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site, so no .pth file can import these first and hide a regression
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import cosetchar.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-S", "-c", probe, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "[]\n"
