"""Mapping-class tests: word evaluation, the membership suite, curve tables."""

import math
import random

import pytest

import distortion.engine as engine
import distortion.exact as exact
import distortion.exterior as exterior
import distortion.mapclass as mapclass
import distortion.symplectic as symplectic
from distortion.exact import IntMatrix, IntVector
from distortion.mapclass import (
    MappingClassWord,
    TW_membership,
    evaluate,
    humphries_table,
    level_membership,
    preserves_lattice,
    standard_curves,
    torelli_membership,
    word_from_json,
)
from distortion.symplectic import SymplecticContext, is_symplectic, transvection
from helpers_oracle import mat_mul_plain, rank_plain, twist_plain


def lagrangian_basis(g):
    return IntMatrix.from_columns([IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g)


def word(g, *letters):
    table = standard_curves(g)
    return MappingClassWord.from_letters(g, [(table[lab], e) for lab, e in letters])


def test_evaluate_golden():
    assert evaluate(MappingClassWord(2, ())).is_identity()
    sep = IntVector.zero(4)
    assert evaluate(MappingClassWord.from_letters(2, [(sep, 1)])).is_identity()
    M = evaluate(word(1, ("a1", 1), ("b1", -1)))
    assert M.entries == ((2, -1), (-1, 1))


TOP = 2 ** 63 - 1


def seeded_words(seed):
    """Words at g = 1..6: the empty word, then words over zero classes and
    primitive classes with entries up to 3 in size, with exponents of 1 to 3
    and +-(2^63 - 1)."""
    rnd = random.Random(seed)
    for g in range(1, 7):
        yield MappingClassWord(g, ())
        for _ in range(8):
            letters = []
            for _ in range(rnd.randint(1, 8)):
                while True:
                    v = [rnd.choice((0, 0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(2 * g)]
                    if rnd.random() < 0.15:
                        v = [0] * (2 * g)
                    if not any(v) or math.gcd(*v) == 1:
                        break
                e = rnd.choice((1, -1, 2, -3, TOP, -TOP))
                letters.append((IntVector(tuple(v)), e))
            yield MappingClassWord(g, tuple(letters))


def transvection_product(word):
    """The product of the letters' twist powers I + e v c^T, each from
    helpers_oracle.twist_plain, by schoolbook products."""
    M = [[int(i == j) for j in range(2 * word.genus)] for i in range(2 * word.genus)]
    for v, e in word.letters:
        M = mat_mul_plain(M, twist_plain(list(v.entries), e))
    return tuple(map(tuple, M))


def test_evaluate_matches_transvection_product():
    words = list(seeded_words(5))
    assert any(v.is_zero() for w in words for v, _ in w.letters)
    assert any(v.sup_norm() == 3 for w in words for v, _ in w.letters)
    assert {abs(e) for w in words for _, e in w.letters} >= {1, 2, 3, TOP}
    for w in words:
        assert evaluate(w).entries == transvection_product(w)


def test_evaluate_forms_no_product(monkeypatch):
    words = list(seeded_words(6))
    expected = [transvection_product(w) for w in words]

    def fail(*args):
        raise AssertionError("evaluate formed a matrix product or a transvection")

    for module in (exact, engine, exterior):
        monkeypatch.setattr(module, "mat_mul", fail)
    monkeypatch.setattr(exact, "mat_pow", fail)
    monkeypatch.setattr(symplectic, "transvection", fail)
    assert [evaluate(w).entries for w in words] == expected


def test_evaluate_is_homomorphism():
    rnd = random.Random(19)
    table = standard_curves(2)
    labels = list(table)
    for _ in range(30):
        w1 = MappingClassWord.from_letters(
            2, [(table[rnd.choice(labels)], rnd.choice((-2, -1, 1, 2))) for _ in range(4)]
        )
        w2 = MappingClassWord.from_letters(
            2, [(table[rnd.choice(labels)], rnd.choice((-1, 1))) for _ in range(3)]
        )
        w1w2 = MappingClassWord(2, w1.letters + w2.letters)
        w1_inv = MappingClassWord(2, tuple((v, -e) for v, e in reversed(w1.letters)))
        assert evaluate(w1w2).entries == exact.mat_mul(evaluate(w1), evaluate(w2)).entries
        assert evaluate(w1_inv).entries == evaluate(w1).inverse().entries


def test_torelli_golden():
    sep = IntVector.zero(4)
    assert torelli_membership(evaluate(MappingClassWord.from_letters(2, [(sep, 3)])))
    # bounding pair: homologous distinct curves c, d
    c = d = IntVector((1, 0, 0, 0))
    assert torelli_membership(evaluate(MappingClassWord.from_letters(2, [(c, 1), (d, -1)])))
    assert not torelli_membership(evaluate(word(2, ("a1", 1))))


def test_evaluate_entry_bound(monkeypatch):
    # every prefix's entries are at most 2^S, S the sum over its letters of
    # log2(1 + |e| |v|_inf |v|_1); a word whose S passes MAX_VALUE_BITS is
    # refused before its first letter
    rnd = random.Random(22)
    for _ in range(40):
        g = rnd.randint(1, 3)
        letters = []
        for _ in range(rnd.randint(1, 12)):
            v = IntVector(tuple(rnd.randint(-3, 3) for _ in range(2 * g)))
            if v.content() <= 1:
                letters.append((v, rnd.choice((-1, 1)) * rnd.randint(1, 2 ** rnd.randint(0, 40))))
        bound = 0.0
        for k, (v, e) in enumerate(letters):
            bound += math.log2(1 + abs(e) * v.sup_norm() * v.l1_norm())
            M = evaluate(MappingClassWord(g, tuple(letters[:k + 1])))
            assert M.max_abs() <= 2 ** bound
    w = MappingClassWord.from_letters(1, [(IntVector(v), 2 ** 62) for v in ((1, 0), (0, 1))] * 5)
    monkeypatch.setattr(mapclass, "MAX_VALUE_BITS", 10 * 62)
    assert not evaluate(w).is_identity()
    monkeypatch.setattr(mapclass, "MAX_VALUE_BITS", 10 * 62 - 1)
    with pytest.raises(exact.ResourceLimitError, match="may reach 620 bits, over the cap 619$"):
        evaluate(w)


def test_level_golden():
    assert level_membership(evaluate(word(2, ("a1", 2))), 2)
    assert not level_membership(evaluate(word(2, ("a1", 2))), 3)
    assert not level_membership(evaluate(word(2, ("a1", 1))), 2)
    sep = IntVector.zero(4)
    for m in (2, 3, 5):
        assert level_membership(evaluate(MappingClassWord.from_letters(2, [(sep, 1)])), m)
    with pytest.raises(ValueError):
        level_membership(evaluate(word(2, ("a1", 1))), 1)


def test_level_subgroup_closure_sampled():
    rnd = random.Random(31)
    ctx = SymplecticContext(2)
    L = 3
    # twist powers T^L lie in the level-L subgroup; so do their products and
    # inverses, each checked symplectic
    elements = []
    for _ in range(12):
        v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(4)))
        T = exact.mat_pow(transvection(ctx, v), L)
        elements.append(T if rnd.choice((1, -1)) == 1 else T.inverse())
    for _ in range(40):
        M = rnd.choice(elements)
        N = rnd.choice(elements)
        for X in (M, exact.mat_mul(M, N), M.inverse()):
            assert is_symplectic(ctx, X) and level_membership(X, L)


def test_torelli_implies_everything():
    rnd = random.Random(51)
    table = standard_curves(2)
    # conjugates of bounding-pair words are Torelli
    c = d = IntVector((0, 1, 0, 0))
    bp = MappingClassWord.from_letters(2, [(c, 1), (d, -1)])
    for _ in range(10):
        conj = MappingClassWord.from_letters(
            2, [(table[rnd.choice(list(table))], rnd.choice((-1, 1))) for _ in range(3)]
        )
        conj_inv = tuple((v, -e) for v, e in reversed(conj.letters))
        w = MappingClassWord(2, conj.letters + bp.letters + conj_inv)
        assert torelli_membership(evaluate(w))
        for m in (2, 3, 4):
            assert level_membership(evaluate(w), m)
        for wb in (lagrangian_basis(2), IntMatrix.identity(4).scale(3)):
            assert TW_membership(evaluate(w), wb)


def test_lagrangian_membership_golden():
    wl = lagrangian_basis(2)
    assert preserves_lattice(evaluate(word(2, ("a1", 1))), wl)
    assert TW_membership(evaluate(word(2, ("a1", 1))), wl)
    assert TW_membership(evaluate(word(2, ("a2", -3))), wl)
    assert not preserves_lattice(evaluate(word(2, ("b1", 1))), wl)
    assert not TW_membership(evaluate(word(2, ("b1", 1))), wl)


def test_level_via_tw_with_torsion_quotient():
    # W = mH: TW membership is exactly level-m membership
    wm = IntMatrix.identity(4).scale(2)
    assert TW_membership(evaluate(word(2, ("a1", 2))), wm)
    assert not TW_membership(evaluate(word(2, ("a1", 1))), wm)
    wm3 = IntMatrix.identity(4).scale(3)
    assert not TW_membership(evaluate(word(2, ("a1", 2))), wm3)


def test_tw_with_trivial_w_is_torelli():
    empty = IntMatrix(tuple(() for _ in range(4)), 0)
    sep = IntVector.zero(4)
    assert TW_membership(evaluate(MappingClassWord.from_letters(2, [(sep, 1)])), empty)
    assert not TW_membership(evaluate(word(2, ("a1", 1))), empty)


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
        if TW_membership(evaluate(w), w1) and preserves_lattice(evaluate(w), w2):
            assert TW_membership(evaluate(w), w2)


def test_modw_rejects_dependent_basis():
    bad = IntMatrix.from_columns([(1, 0, 0, 0), (2, 0, 0, 0)], 4)
    with pytest.raises(ValueError):
        preserves_lattice(evaluate(word(2, ("a1", 1))), bad)


def test_tw_rejects_dependent_basis():
    bad = IntMatrix.from_columns([(1, 0, 0, 0), (2, 0, 0, 0)], 4)
    with pytest.raises(ValueError):
        TW_membership(evaluate(word(2, ("a1", 1))), bad)


def test_primitivity_enforced():
    # the reader checks each letter in turn: dimension, primitivity (named
    # by its label, or x<i>), exponent; the zero class is a separating curve
    def letter(v, e=1, **label):
        return {**label, "class": v, "exp": e}

    def read(*letters):
        return word_from_json({"genus": 2, "letters": list(letters)})

    assert read(letter([0, 0, 0, 0]), letter([1, -1, 0, 3], -2)).letters == (
        (IntVector.zero(4), 1), (IntVector((1, -1, 0, 3)), -2))
    with pytest.raises(ValueError, match="^curve class 'bad' is not primitive$"):
        read(letter([1, 0, 0, 0]), letter([2, 0, 0, 0], label="bad"))
    with pytest.raises(ValueError, match="^curve class 'x1' is not primitive$"):
        read(letter([1, 0, 0, 0], 0), letter([0, 2, 0, -4], 2 ** 63))
    with pytest.raises(ValueError, match="^class dimension does not match the genus$"):
        read(letter([1, 0, 0, 0]), letter([2, 0, 0, 0, 0, 0]))
    with pytest.raises(exact.ResourceLimitError, match="exponent of 64 bits"):
        read(letter([1, 0, 0, 0], 2 ** 63), letter([2, 0, 0, 0]))
    with pytest.raises(ValueError, match="^zero exponents are not allowed in words$"):
        read(letter([1, 0, 0, 0], 0), letter([0, 1, 0, 0]))


def pairing_matrix(g, curves):
    pairing = SymplecticContext(g).pairing
    return [[pairing(u, v) for v in curves.values()] for u in curves.values()]


def test_humphries_table_structure():
    for g in (2, 3, 4, 5):
        table = humphries_table(g)
        assert list(table) == [f"c{i}" for i in range(2 * g + 1)]
        assert all(c.content() == 1 for c in table.values())
        # the documented pattern: c0 meets only c4, once; consecutive chain
        # classes pair +1, -1 alternately from <c1, c2> = 1; all else 0
        expected = [[0] * (2 * g + 1) for _ in range(2 * g + 1)]
        expected[0][4], expected[4][0] = 1, -1
        for i in range(1, 2 * g):
            expected[i][i + 1] = 1 if i % 2 else -1
            expected[i + 1][i] = -expected[i][i + 1]
        assert pairing_matrix(g, table) == expected
        # chain classes span H
        assert rank_plain([c.entries for c in table.values()]) == 2 * g


def test_standard_curves_pairing():
    for g in (2, 3, 4, 5):
        table = standard_curves(g)
        assert list(table) == SymplecticContext(g).basis_labels()
        assert all(c == SymplecticContext(g).basis_vector(lab) for lab, c in table.items())
        # <a_i, b_i> = 1 = -<b_i, a_i>, all else 0
        sign = {("a", "b"): 1, ("b", "a"): -1}
        expected = [[sign.get((u[0], v[0]), 0) * (u[1:] == v[1:]) for v in table] for u in table]
        assert pairing_matrix(g, table) == expected


def test_word_json_roundtrip():
    # w as the membership command's word file writes it
    w = word(2, ("a1", 1), ("b1", -2))
    back = word_from_json({"genus": 2, "letters": [{"label": "a1", "class": [1, 0, 0, 0], "exp": 1},
                                                   {"label": "b1", "class": [0, 0, 1, 0], "exp": -2}]})
    assert back.genus == 2 and back.letters == w.letters
    assert evaluate(back).entries == evaluate(w).entries


def test_word_rejects_zero_exponent():
    table = standard_curves(2)
    with pytest.raises(ValueError):
        MappingClassWord.from_letters(2, [(table["a1"], 0)])
