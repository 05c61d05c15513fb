"""Mapping-class tests: word evaluation, the membership suite, curve tables."""

import random

import pytest

from distortion.exact import IntMatrix, IntVector
from distortion.mapclass import (
    CurveClass,
    MappingClassWord,
    TW_membership,
    curve_table_from_json,
    curve_table_to_json,
    evaluate,
    humphries_table,
    level_membership,
    modW_membership,
    standard_curves,
    torelli_membership,
    word_from_json,
    word_to_json,
)
from distortion.symplectic import SymplecticContext


def lagrangian_basis(g):
    return IntMatrix.from_columns([IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g)


def word(g, *letters):
    table = standard_curves(g)
    return MappingClassWord.from_letters(g, [(table.curve(lab), e) for lab, e in letters])


def test_evaluate_golden():
    assert evaluate(MappingClassWord(2, ())).is_identity()
    sep = CurveClass("sep", IntVector.zero(4), 2)
    assert evaluate(MappingClassWord.from_letters(2, [(sep, 1)])).is_identity()
    M = evaluate(word(1, ("a1", 1), ("b1", -1)))
    assert M.matrix.entries == ((2, -1), (-1, 1))


def test_evaluate_is_homomorphism():
    rnd = random.Random(19)
    table = standard_curves(2)
    labels = table.labels()
    for _ in range(30):
        w1 = MappingClassWord.from_letters(
            2, [(table.curve(rnd.choice(labels)), rnd.choice((-2, -1, 1, 2))) for _ in range(4)]
        )
        w2 = MappingClassWord.from_letters(
            2, [(table.curve(rnd.choice(labels)), rnd.choice((-1, 1))) for _ in range(3)]
        )
        assert evaluate(w1 * w2).matrix.entries == (evaluate(w1) * evaluate(w2)).matrix.entries
        assert evaluate(w1.inverse()).matrix.entries == evaluate(w1).inverse().matrix.entries


def test_torelli_golden():
    sep = CurveClass("sep", IntVector.zero(4), 2)
    assert torelli_membership(MappingClassWord.from_letters(2, [(sep, 3)]))
    # bounding pair: homologous distinct curves c, d
    c = CurveClass("c", IntVector((1, 0, 0, 0)), 2)
    d = CurveClass("d", IntVector((1, 0, 0, 0)), 2)
    assert torelli_membership(MappingClassWord.from_letters(2, [(c, 1), (d, -1)]))
    assert not torelli_membership(word(2, ("a1", 1)))


def test_level_golden():
    assert level_membership(word(2, ("a1", 2)), 2)
    assert not level_membership(word(2, ("a1", 2)), 3)
    assert not level_membership(word(2, ("a1", 1)), 2)
    sep = CurveClass("sep", IntVector.zero(4), 2)
    for m in (2, 3, 5):
        assert level_membership(MappingClassWord.from_letters(2, [(sep, 1)]), m)
    with pytest.raises(ValueError):
        level_membership(word(2, ("a1", 1)), 1)


def test_torelli_implies_everything():
    rnd = random.Random(51)
    table = standard_curves(2)
    # conjugates of bounding-pair words are Torelli
    c = CurveClass("c", IntVector((0, 1, 0, 0)), 2)
    d = CurveClass("d", IntVector((0, 1, 0, 0)), 2)
    bp = MappingClassWord.from_letters(2, [(c, 1), (d, -1)])
    for _ in range(10):
        conj = MappingClassWord.from_letters(
            2, [(table.curve(rnd.choice(table.labels())), rnd.choice((-1, 1))) for _ in range(3)]
        )
        w = conj * bp * conj.inverse()
        assert torelli_membership(w)
        for m in (2, 3, 4):
            assert level_membership(w, m)
        for wb in (lagrangian_basis(2), IntMatrix.identity(4).scale(3)):
            assert TW_membership(w, wb)


def test_lagrangian_membership_golden():
    wl = lagrangian_basis(2)
    assert modW_membership(word(2, ("a1", 1)), wl)
    assert TW_membership(word(2, ("a1", 1)), wl)
    assert TW_membership(word(2, ("a2", -3)), wl)
    assert not modW_membership(word(2, ("b1", 1)), wl)
    assert not TW_membership(word(2, ("b1", 1)), wl)


def test_level_via_tw_with_torsion_quotient():
    # W = mH: TW membership is exactly level-m membership
    wm = IntMatrix.identity(4).scale(2)
    assert TW_membership(word(2, ("a1", 2)), wm)
    assert not TW_membership(word(2, ("a1", 1)), wm)
    wm3 = IntMatrix.identity(4).scale(3)
    assert not TW_membership(word(2, ("a1", 2)), wm3)


def test_tw_with_trivial_w_is_torelli():
    empty = IntMatrix(tuple(() for _ in range(4)), 0)
    sep = CurveClass("sep", IntVector.zero(4), 2)
    assert TW_membership(MappingClassWord.from_letters(2, [(sep, 1)]), empty)
    assert not TW_membership(word(2, ("a1", 1)), empty)


def test_tw_monotone_under_inclusion():
    # W1 = <a1> inside W2 = <a1, a2>: TW(W1) implies TW(W2) for words preserving W2
    g = 2
    w1 = IntMatrix.from_columns([IntVector.basis(4, 0).entries], 4)
    w2 = lagrangian_basis(2)
    candidates = [
        word(g, ("a1", 1)),
        word(g, ("a2", 1)),
        word(g, ("a1", 1), ("a2", -1)),
        word(g, ("b1", 2)),
        word(g, ("a1", 1), ("b1", 1)),
    ]
    for w in candidates:
        if TW_membership(w, w1) and modW_membership(w, w2):
            assert TW_membership(w, w2)


def test_modw_rejects_dependent_basis():
    bad = IntMatrix.from_columns([(1, 0, 0, 0), (2, 0, 0, 0)], 4)
    with pytest.raises(ValueError):
        modW_membership(word(2, ("a1", 1)), bad)


def test_tw_rejects_dependent_basis():
    bad = IntMatrix.from_columns([(1, 0, 0, 0), (2, 0, 0, 0)], 4)
    with pytest.raises(ValueError):
        TW_membership(word(2, ("a1", 1)), bad)


def test_primitivity_enforced():
    with pytest.raises(ValueError):
        CurveClass("bad", IntVector((2, 0, 0, 0)), 2)


def test_humphries_table_structure():
    for g in (2, 3, 4):
        table = humphries_table(g)
        assert len(table.curves) == 2 * g + 1
        assert table.verify()
        assert all(c.homology.is_primitive() for c in table.curves)
        # pendant class meets exactly one chain curve
        ctx = SymplecticContext(g)
        c0 = table.curve("c0")
        meets = [
            c.label
            for c in table.curves[1:]
            if ctx.pairing(c0.homology, c.homology) != 0
        ]
        assert meets == ["c4"]
        # chain classes span H
        from distortion.exact import rational_rank
        cols = IntMatrix.from_columns([c.homology.entries for c in table.curves], 2 * g)
        assert rational_rank(cols) == 2 * g


def test_table_json_roundtrip():
    table = humphries_table(2)
    back = curve_table_from_json(curve_table_to_json(table))
    assert back.genus == 2
    assert [c.label for c in back.curves] == [c.label for c in table.curves]
    assert back.verify()


def test_word_json_roundtrip():
    w = word(2, ("a1", 1), ("b1", -2))
    back = word_from_json(word_to_json(w))
    assert back.genus == 2
    assert evaluate(back).matrix.entries == evaluate(w).matrix.entries


def test_word_rejects_zero_exponent():
    table = standard_curves(2)
    with pytest.raises(ValueError):
        MappingClassWord.from_letters(2, [(table.curve("a1"), 0)])
