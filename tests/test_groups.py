import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellbundles.groups import (
    GroupHom,
    NoIdentityError,
    NotAssociativeError,
    NotLatinSquareError,
    SizeMismatchError,
    ZeroOrderError,
    check_hom,
    direct_product,
    identity_hom,
    kernel,
    make_cyclic,
    make_from_table,
    symmetric_group,
    trivial_hom,
    validate_subgroup,
)


def test_cyclic_two():
    g = make_cyclic(2)
    assert g.mul(1, 1) == g.identity


def test_trivial_group():
    g = make_cyclic(1)
    assert g.order == 1 and g.identity == 0


def test_cyclic_rejects_zero():
    with pytest.raises(ZeroOrderError):
        make_cyclic(0)


def test_cyclic_six_is_crt_product():
    g6 = make_cyclic(6)
    prod = direct_product(make_cyclic(2), make_cyclic(3))
    # CRT index map: k mod 6 -> (k mod 2, k mod 3) packed as 3*(k%2)+(k%3).
    crt = [3 * (k % 2) + (k % 3) for k in range(6)]
    relabeled = np.empty((6, 6), dtype=int)
    for a in range(6):
        for b in range(6):
            relabeled[crt[a], crt[b]] = crt[g6.mul(a, b)]
    assert np.array_equal(relabeled, prod.table)


def test_symmetric_group_is_valid_and_nonabelian():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    commutators = {
        s3.mul(s3.mul(a, b), s3.inv(s3.mul(b, a)))
        for a in s3.elements()
        for b in s3.elements()
    }
    assert commutators != {s3.identity}


def find_nonassociative_latin_square():
    # Brute search over row-permuted squares of order 5: quasigroup loops of
    # that order are plentiful and most fail associativity.
    rng = np.random.default_rng(0)
    base = np.arange(5)
    while True:
        rows = [base.copy()]
        rng.shuffle(base)
        perm = rng.permutation(5)
        square = (base[:, None] + perm[None, :]) % 5
        # make it a Latin square by construction; test associativity
        t = square
        ok_latin = all(
            len(set(t[i].tolist())) == 5 and len(set(t[:, i].tolist())) == 5
            for i in range(5)
        )
        if not ok_latin:
            continue
        for g in range(5):
            for h in range(5):
                for k in range(5):
                    if t[t[g, h], k] != t[g, t[h, k]]:
                        return t


def test_nonassociative_latin_square_rejected():
    t = find_nonassociative_latin_square()
    with pytest.raises((NotAssociativeError, NoIdentityError)):
        make_from_table(t)


# a loop of order 5 that is no group (1 * 1 = 0, and a group of order 5 is cyclic)
LOOP5 = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]])


def test_a_nonassociative_loop_is_refused_past_the_first_chunk():
    """Z40 x LOOP5 indexed b * 40 + a: every non-associative triple (g, h, k)
    has a g of loop part b != 0, a row past the first chunk of rows that
    the associativity check compares at once."""
    b, a = np.divmod(np.arange(200), 40)
    table = LOOP5[b[:, None], b[None, :]] * 40 + (a[:, None] + a[None, :]) % 40
    with pytest.raises(NotAssociativeError):
        make_from_table(table)


def test_the_associativity_check_forms_no_cubic_array():
    """The check compares chunks of rows, so a table of order 200 peaks far
    below the two 200^3 int64 arrays (61 MiB each) of a whole comparison."""
    table = (np.arange(200)[:, None] + np.arange(200)) % 200
    tracemalloc.start()
    try:
        make_from_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_one_by_one_table():
    g = make_from_table([[0]])
    assert g.order == 1


def test_non_latin_rejected():
    with pytest.raises(NotLatinSquareError):
        make_from_table([[0, 0], [1, 1]])


def test_hom_mod_two():
    g4, g2 = make_cyclic(4), make_cyclic(2)
    phi = GroupHom(g4, g2, [k % 2 for k in range(4)])
    assert check_hom(phi)
    assert kernel(phi) == [0, 2]


def test_identity_hom_kernel():
    g = symmetric_group(3)
    assert kernel(identity_hom(g)) == [g.identity]


def test_constant_hom_kernel_is_everything():
    g = make_cyclic(5)
    phi = trivial_hom(g, make_cyclic(3))
    assert kernel(phi) == list(g.elements())


def test_non_hom_detected():
    g4, g2 = make_cyclic(4), make_cyclic(2)
    phi = GroupHom(g4, g2, [0, 1, 1, 0])
    assert not check_hom(phi)
    with pytest.raises(SizeMismatchError):
        kernel(phi)


def test_hom_size_mismatch():
    with pytest.raises(SizeMismatchError):
        GroupHom(make_cyclic(4), make_cyclic(2), [0, 1])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=24))
def test_cyclic_groups_validate_exhaustively(n):
    g = make_cyclic(n)
    # make_from_table re-runs the full axiom battery including associativity
    rebuilt = make_from_table(g.table)
    assert rebuilt.identity == g.identity
    assert np.array_equal(rebuilt.inverse, g.inverse)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=11))
def test_kernels_are_subgroups(n, shift):
    g = make_cyclic(n)
    target = make_cyclic(max(1, n // 2)) if n % 2 == 0 else make_cyclic(1)
    phi = trivial_hom(g, target)
    validate_subgroup(g, kernel(phi))
