"""The value records of every layer: construction, immutability, equality, hashing and repr."""

import pytest
from mpmath import mpf

from tauforms import QSeries
from tauforms.arith import Rat
from tauforms.expr import Atom, BinOp, Call, Neg, Num, Token, WeightInfo
from tauforms.forms import BasisCoords, Form
from tauforms.lseries import (
    ExactIdentity,
    IdentityReport,
    LQuery,
    LResult,
    M0Value,
    PeterssonEstimate,
    PeterssonReport,
)
from tauforms.poincare import FormalPoincare, Growth, TauIdentity, TauRelation

S = QSeries([0, 1])
S_TEXT = "QSeries(prec=2; 0, 1)"

# (class, required fields in order, defaulted fields in order, one field changed, repr)
CASES = [
    (
        Form,
        {"weight": 12, "series": S},
        {"is_cusp": False, "quasimodular": False},
        {"series": QSeries([0, 2])},
        f"Form(weight=12, series={S_TEXT}, is_cusp=False, quasimodular=False)",
    ),
    (
        BasisCoords,
        {"weight": 4, "coords": (((1, 0), Rat(1)),)},
        {},
        {"weight": 6},
        "BasisCoords(weight=4, coords=(((1, 0), Fraction(1, 1)),))",
    ),
    (
        LQuery,
        {"m": 1, "a": 1, "s": 11, "cutoff": 100},
        {"prec_bits": 256, "n_weight": False},
        {"m": 2},
        "LQuery(m=1, a=1, s=11, cutoff=100, prec_bits=256, n_weight=False)",
    ),
    (
        LResult,
        {"partial_sum": mpf(1), "tail_estimate": mpf(2), "rigorous": True, "terms_used": 100, "err_round": mpf(3)},
        {},
        {"terms_used": 99},
        "LResult(partial_sum=mpf('1.0'), tail_estimate=mpf('2.0'), rigorous=True, terms_used=100, err_round=mpf('3.0'))",
    ),
    (
        IdentityReport,
        {
            "identity_id": "kumar",
            "m": 1,
            "a": 1,
            "s": 11,
            "result": LResult(mpf(1), mpf(2), False, 100, mpf(3)),
            "lhs": 1,
            "rhs": mpf(1),
            "rel_err": mpf(0),
            "tol": 1e-10,
            "verdict": "PASS",
        },
        {},
        {"verdict": "FAIL"},
        "IdentityReport(identity_id='kumar', m=1, a=1, s=11, result=LResult(partial_sum=mpf('1.0'), "
        "tail_estimate=mpf('2.0'), rigorous=False, terms_used=100, err_round=mpf('3.0')), lhs=1, rhs=mpf('1.0'), "
        "rel_err=mpf('0.0'), tol=1e-10, verdict='PASS')",
    ),
    (
        M0Value,
        {
            "a": 1,
            "s": 11,
            "cutoff": 100,
            "numeric": mpf(1),
            "constant": Rat(1, 2),
            "predicted": mpf(1),
            "printed": "0.880",
            "err_round": mpf(2),
            "verdict": "PASS",
        },
        {},
        {"printed": "0.754"},
        "M0Value(a=1, s=11, cutoff=100, numeric=mpf('1.0'), constant=Fraction(1, 2), "
        "predicted=mpf('1.0'), printed='0.880', err_round=mpf('2.0'), verdict='PASS')",
    ),
    (
        PeterssonEstimate,
        {"a": 1, "s": 11, "estimate": mpf(1), "rel_dev_from_ref": mpf(0), "verdict": "PASS"},
        {},
        {"s": 10},
        "PeterssonEstimate(a=1, s=11, estimate=mpf('1.0'), rel_dev_from_ref=mpf('0.0'), verdict='PASS')",
    ),
    (
        PeterssonReport,
        {
            "estimates": (PeterssonEstimate(1, 11, 1, 0, "PASS"),),
            "max_pairwise_high": 0,
            "max_pairwise_low": 0,
            "reference": "1e-6",
            "verdict": "PASS",
        },
        {},
        {"reference": "2e-6"},
        "PeterssonReport(estimates=(PeterssonEstimate(a=1, s=11, estimate=1, rel_dev_from_ref=0, verdict='PASS'),), "
        "max_pairwise_high=0, max_pairwise_low=0, reference='1e-6', verdict='PASS')",
    ),
    (
        ExactIdentity,
        {"label": "E8 * E4", "lhs": Form(12, S, True), "e12": Rat(0), "delta_coeff": Rat(1)},
        {},
        {"label": "E4 * E8"},
        f"ExactIdentity(label='E8 * E4', lhs=Form(weight=12, series={S_TEXT}, is_cusp=True, quasimodular=False), "
        f"e12=Fraction(0, 1), delta_coeff=Fraction(1, 1))",
    ),
    (
        Growth,
        {"exponent": Rat(11, 2)},
        {"eps_sign": 0},
        {"exponent": Rat(3)},
        "Growth(exponent=Fraction(11, 2), eps_sign=0)",
    ),
    (
        FormalPoincare,
        {"weight": 12, "seed": S},
        {"origin": ""},
        {"weight": 14},
        f"FormalPoincare(weight=12, seed={S_TEXT}, origin='')",
    ),
    (
        TauRelation,
        {"m": 1, "num": (1, -2), "den": 3},
        {"weight": 12, "origin": ""},
        {"den": 5},
        "TauRelation(m=1, num=(1, -2), den=3, weight=12, origin='')",
    ),
    (
        TauIdentity,
        {"ident": "kumar", "a": 1, "s": 11, "c": -20, "pole": Rat(5, 6), "derivation": ("serre_p10",)},
        {},
        {"pole": None},
        "TauIdentity(ident='kumar', a=1, s=11, c=-20, pole=Fraction(5, 6), derivation=('serre_p10',))",
    ),
    (
        Token,
        {"kind": "NAME", "text": "E4", "pos": 0},
        {},
        {"pos": 3},
        "Token(kind='NAME', text='E4', pos=0)",
    ),
    (Num, {"value": Rat(1)}, {"pos": 0}, {"value": Rat(2)}, "Num(value=Fraction(1, 1), pos=0)"),
    (Atom, {"name": "E4"}, {"pos": 0}, {"name": "E6"}, "Atom(name='E4', pos=0)"),
    (
        Call,
        {"name": "RC", "args": (Atom("E4"),)},
        {"pos": 0},
        {"name": "D"},
        "Call(name='RC', args=(Atom(name='E4', pos=0),), pos=0)",
    ),
    (
        BinOp,
        {"op": "+", "left": Atom("E4"), "right": Atom("E4")},
        {"pos": 0},
        {"op": "-"},
        "BinOp(op='+', left=Atom(name='E4', pos=0), right=Atom(name='E4', pos=0), pos=0)",
    ),
    (Neg, {"operand": Atom("E4")}, {"pos": 0}, {"operand": Atom("E6")}, "Neg(operand=Atom(name='E4', pos=0), pos=0)"),
    (
        WeightInfo,
        {"weight": 4, "quasimodular": False},
        {},
        {"quasimodular": True},
        "WeightInfo(weight=4, quasimodular=False)",
    ),
]

records = pytest.mark.parametrize("cls, required, defaults, other, text", CASES, ids=[c[0].__name__ for c in CASES])


@records
def test_record_construction(cls, required, defaults, other, text):
    record = cls(*required.values())
    assert cls(**required) == record
    assert cls(*required.values(), *defaults.values()) == record
    assert cls(**required, **defaults) == record
    for name, value in {**required, **defaults}.items():
        assert getattr(record, name) == value
    assert repr(record) == text
    first = next(iter(required))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*required.values(), *defaults.values(), 0)
    with pytest.raises(TypeError):
        cls(*required.values(), **{first: required[first]})
    with pytest.raises(TypeError):
        cls(**required, no_such_field=0)


@records
def test_record_is_immutable(cls, required, defaults, other, text):
    record = cls(*required.values())
    for name in (*required, *defaults):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 0
    assert repr(record) == text


@records
def test_record_equality_and_hash_by_fields(cls, required, defaults, other, text):
    record, twin = cls(*required.values()), cls(*required.values())
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1
    assert cls(**{**required, **defaults, **other}) != record
    # A different class is never equal, even with the same fields.
    other_class = type("Other" + cls.__name__, (cls,), {})
    assert other_class(*required.values()) != record
    assert record != other_class(*required.values())
    assert record != tuple(required.values())


def test_syntax_node_position_is_not_compared():
    assert Num(Rat(1), pos=0) == Num(Rat(1), pos=5)
    assert hash(Num(Rat(1), pos=0)) == hash(Num(Rat(1), pos=5))
    assert repr(Num(Rat(1), pos=5)) == "Num(value=Fraction(1, 1), pos=5)"
    assert BinOp("+", Atom("E4", 0), Atom("E4", 3), 2) == BinOp("+", Atom("E4"), Atom("E4"))
    assert Call("D", (Num(Rat(1), 7),), 0) == Call("D", (Num(Rat(1)),), 4)
    assert Neg(Atom("E4", 1), 0) == Neg(Atom("E4"), 9)
    # Token keeps its position as a compared field.
    assert Token("NAME", "E4", 0) != Token("NAME", "E4", 3)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Form(3, S), "weight must be a nonnegative even integer, got 3"),
        (lambda: Form(-2, S), "weight must be a nonnegative even integer, got -2"),
        (lambda: Form(2, S), "weight 2 carries no modular forms"),
        (lambda: Form(12, QSeries([1, 240]), is_cusp=True), "cusp forms have vanishing constant term"),
        (lambda: LQuery(1, 2, 11, 100), r"\(a, s\) = \(2, 11\) is outside the catalog"),
        (lambda: LQuery(1, 1, 11, 100, n_weight=True), "n-weighted auxiliary series exists only"),
        (lambda: LQuery(-1, 1, 11, 100), "m must be >= 0"),
        (lambda: LQuery(1, 1, 11, 0), "cutoff must be >= 1"),
        (lambda: LQuery(1, 1, 11, 100, prec_bits=8), "precision must be at least 16 bits"),
        (lambda: Growth(1, eps_sign=2), "eps_sign must be -1, 0 or \\+1"),
        (lambda: FormalPoincare(2, S), "averaging weight must be even and >= 4, got 2"),
        (lambda: FormalPoincare(5, S), "averaging weight must be even and >= 4, got 5"),
    ],
)
def test_record_validation_errors(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_post_init_may_normalise_a_field():
    growth = Growth("1/2", eps_sign=1)
    assert growth.exponent == Rat(1, 2) and isinstance(growth.exponent, Rat)
    assert growth == Growth(Rat(1, 2), 1)
    assert hash(growth) == hash(Growth(Rat(1, 2), 1))
    assert Form(2, S, quasimodular=True).quasimodular
