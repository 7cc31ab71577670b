import random

from sutura import diagram as D
from sutura import oracles, sfh
from sutura import stacking as S
from sutura.verify import _R53
from sutura.words import Word, all_words, word

from strategies import gradings


def test_small_rotation_values():
    x = sfh.SfhElement.basis(word("-+"))
    assert sfh.rotation(x) == sfh.SfhElement.basis(word("+-"))
    y = sfh.rotation(sfh.SfhElement.basis(word("+-")))
    assert y.words == {word("-+"), word("+-")}
    assert sfh.rotation(y) == x


def test_displayed_matrices():
    assert oracles.rotation_matrix(2, 1) == ((0, 1), (1, 1))
    r3 = ((0, 1, 0), (0, 0, 1), (1, 1, 1))
    assert oracles.rotation_matrix(3, 1) == r3
    assert oracles.rotation_matrix(3, 2) == r3
    r4 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))
    assert oracles.rotation_matrix(4, 1) == r4
    assert oracles.rotation_matrix(4, 3) == r4
    assert oracles.rotation_matrix(5, 3) == _R53


def test_documented_non_identity():
    assert oracles.rotation_matrix(5, 2) != oracles.rotation_matrix(5, 3)


def test_extremal_gradings_are_identity():
    for n in range(1, 7):
        for k in (0, n):
            m = oracles.rotation_matrix(n, k)
            assert all(m[i][j] == int(i == j) for i in range(len(m)) for j in range(len(m)))


def test_three_implementations_agree():
    for n in range(0, 7):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                x = sfh.SfhElement.basis(w)
                a = oracles.rotation_closed_form(x)
                b = oracles.rotation_by_matrix(x)
                c = sfh.rotation(x)
                assert a == b == c, w


def test_rotation_matches_the_closed_form_on_long_words():
    # past the matrix oracle's reach: seeded words of 10 to 18 letters
    rng = random.Random(0)
    for _ in range(40):
        x = sfh.SfhElement.basis(Word(rng.randrange(2) for _ in range(rng.randrange(10, 19))))
        assert sfh.rotation(x) == oracles.rotation_closed_form(x), x


def test_rotation_order():
    for n in range(0, 7):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                x = sfh.SfhElement.basis(w)
                y = x
                for _ in range(n + 1):
                    y = sfh.rotation(y)
                assert y == x


def test_rotation_column_structure():
    # each column holds the image of its basis word; every row is hit by
    # exactly one column's highest nonzero entry
    for (n, k) in ((4, 2), (5, 2), (5, 3)):
        m = oracles.rotation_matrix(n, k)
        dim = len(m)
        tops = []
        for j in range(dim):
            rows = [i for i in range(dim) if m[i][j]]
            assert rows, "rotation matrix has an empty column"
            tops.append(min(rows))
        assert sorted(tops) == list(range(dim))


def test_m_invariance_under_rotation():
    for n in range(1, 6):
        ds = D.enumerate_diagrams(n)
        rot = {d: D.rotate_points(d, -2) for d in ds}
        for a in ds:
            for b in ds:
                assert S.m_geometric(a, b) == S.m_geometric(rot[a], rot[b])


def test_rotation_is_bijection_on_contact_elements():
    for n in range(1, 6):
        ds = D.enumerate_diagrams(n)
        images = {D.rotate_points(d, -2) for d in ds}
        assert images == set(ds)
        for d in ds:
            assert sfh.decompose(D.rotate_points(d, -2)) == sfh.rotation(sfh.decompose(d))
