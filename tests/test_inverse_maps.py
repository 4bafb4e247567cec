import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import omega_by_scan, push_by_lattice_walk

from parkfact.factorizations import (
    enumerate_factorizations,
    lower,
    upper,
)
from parkfact import inverse_maps
from parkfact.parking import is_parking
from parkfact.inverse_maps import (
    _check_entry_invariants,
    l_inverse,
    non_unimodal_witness,
    omega,
    push,
    sigma_sides,
    u_inverse,
)
from parkfact.parking import (
    MajorSequence,
    ParkingFunction,
    enumerate_parking,
)
from parkfact.permutations import (
    FullCycle,
    Permutation,
    full_cycles,
    is_unimodal,
    parse_full_cycle,
    swap_product,
    unimodal_cycles,
)
from parkfact.verify import run_suite

SIGMA6 = parse_full_cycle("0 2 3 5 6 4 1")
P6 = ParkingFunction((2, 4, 0, 1, 4, 0))
P9 = ParkingFunction((1, 3, 1, 7, 0, 7, 0, 1, 4))
M9 = MajorSequence((2, 5, 3, 8, 6, 9, 7, 6, 5))


class TestOmega:
    def test_sides(self):
        left, right = sigma_sides(SIGMA6)
        assert left == {0, 2, 3, 5}
        assert right == {1, 4}

    def test_worked_example(self):
        assert omega(SIGMA6, P6) == (5, 2, 1, 4, 3, 6)

    def test_canonical_all_left(self):
        sigma = FullCycle.canonical(4)
        left, right = sigma_sides(sigma)
        assert left == {0, 1, 2, 3} and right == frozenset()
        assert omega(sigma, ParkingFunction((0, 0, 0, 0))) == (1, 2, 3, 4)

    def test_entries_weakly_decreasing_along_order(self):
        for n in range(1, 6):
            for sigma in unimodal_cycles(n):
                for p in enumerate_parking(n):
                    order = omega(sigma, p)
                    along = [p.entries[j - 1] for j in order]
                    assert along == sorted(along, reverse=True)
                    assert order == omega_by_scan(sigma, p)

    def test_rejects_non_unimodal(self):
        with pytest.raises(ValueError):
            omega(FullCycle((0, 2, 1, 3)), ParkingFunction((0, 0, 0)))


class TestLInverse:
    def test_canonical_worked_example(self):
        f = l_inverse(P6, FullCycle.canonical(6), check=True)
        assert str(f) == "(2 3)(4 5)(0 2)(1 2)(4 6)(0 4)"

    def test_unimodal_worked_example(self):
        f = l_inverse(P6, SIGMA6, check=True)
        assert str(f) == "(2 3)(4 5)(0 2)(1 5)(4 6)(0 5)"

    def test_trivial(self):
        assert str(l_inverse(ParkingFunction((0,)), FullCycle.canonical(1))) == "(0 1)"

    def test_rejects_non_unimodal(self):
        with pytest.raises(ValueError):
            l_inverse(ParkingFunction((0, 0, 0)), FullCycle((0, 2, 1, 3)))

    def test_inverts_the_lower_map_exhaustively(self):
        for n in range(5):
            cycles = unimodal_cycles(n) if n >= 1 else [FullCycle.canonical(0)]
            for sigma in cycles:
                target = sigma.to_permutation()
                for p in enumerate_parking(n):
                    f = l_inverse(p, sigma, check=True)
                    assert lower(f) == p.entries
                    assert f.product() == target

    @given(
        st.integers(6, 9).flatmap(
            lambda n: st.lists(
                st.integers(0, n - 1), min_size=n, max_size=n
            ).filter(is_parking)
        )
    )
    def test_round_trip_beyond_the_exhaustive_range(self, entries):
        p = ParkingFunction(tuple(entries))
        sigma = FullCycle.canonical(p.n)
        f = l_inverse(p, sigma, check=True)
        assert lower(f) == p.entries
        assert f.product() == sigma.to_permutation()
        assert push(p).entries == upper(f)
        m = MajorSequence(tuple(p.n - a for a in p.entries))
        assert upper(u_inverse(m, sigma)) == m.entries

    @given(st.data())
    def test_non_canonical_cycles_beyond_the_exhaustive_range(self, data):
        n = data.draw(st.integers(6, 8))
        mask = data.draw(st.integers(0, 2 ** (n - 1) - 1))
        interior = list(range(1, n))
        ascent = [v for i, v in enumerate(interior) if mask >> i & 1]
        descent = [v for i, v in enumerate(interior) if not mask >> i & 1]
        sigma = FullCycle((0, *ascent, n, *reversed(descent)))
        entries = data.draw(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n).filter(
                is_parking
            )
        )
        p = ParkingFunction(tuple(entries))
        f = l_inverse(p, sigma, check=True)
        assert lower(f) == p.entries
        assert f.product() == sigma.to_permutation()

    @pytest.mark.slow
    def test_l_inverse_suite_at_six(self):
        # opt-in (pytest -m slow): 32 unimodal cycles x 16,807 parking
        # functions, every step checked
        result = run_suite("l-inverse", 6)
        assert result.ok, result.line()

    def test_image_is_the_whole_family(self):
        # differential check against the independent enumerator
        for n in range(5):
            cycles = unimodal_cycles(n) if n >= 1 else [FullCycle.canonical(0)]
            for sigma in cycles:
                from_inverse = {
                    l_inverse(p, sigma).factors for p in enumerate_parking(n)
                }
                from_search = {f.factors for f in enumerate_factorizations(sigma)}
                assert from_inverse == from_search


def _entry_state(word, taus, images=None, pre=None):
    """(sigma, pos, taus, images, pre) for a hand-built step of l_inverse;
    images defaults to the product of the placed factors, pre to its
    inverse."""
    sigma = FullCycle(word)
    if images is None:
        images = swap_product([pair for pair in taus if pair is not None], sigma.n)
    if pre is None:
        pre = list(Permutation(tuple(images)).inverse().images)
    return sigma, sigma.positions(), taus, images, pre


class TestCheckMode:
    # one hand-built state per assertion of the step check, each arguments
    # (word, taus, images, pre, step, a, left) and the message it must raise
    STATES = {
        "images-out-of-sync": (
            (0, 1, 2), [None] * 3, [1, 0, 2], None, 1, 0, True,
            "partial product out of sync at step 1",
        ),
        "inverse-out-of-sync": (
            (0, 1, 2), [None] * 3, None, [1, 0, 2], 1, 0, True,
            "partial product out of sync at step 1",
        ),
        "contiguity": (
            (0, 1, 2), [None, (0, 2), None], None, None, 2, 0, True,
            "partial product [2, 1, 0] lost contiguity at step 2",
        ),
        "cycle-count": (
            (0, 1, 2), [None, (0, 1), None], None, None, 3, 0, True,
            "partial product has 2 cycles at step 3, expected 1",
        ),
        "fixed-prefix": (
            (0, 1, 2), [None, (0, 1), None], None, None, 2, 1, True,
            "partial product moves a value below 1",
        ),
        # the window orientation can only break where sigma has a valley
        "left-window-start": (
            (0, 2, 1, 3), [None, (1, 2), None, None], None, None, 2, 1, True,
            "left window at 1 does not start at 1",
        ),
        "right-window-end": (
            (0, 3, 1, 2), [None, (1, 2), None, None], None, None, 2, 1, False,
            "right window at 1 does not end at 1",
        ),
        "left-window-reaches-the-end": (
            (0, 1, 2), [None, (1, 2), (0, 1)], [1, 2, 0], [2, 0, 1], 3, 0, True,
            "left window at 0 reaches the word's end",
        ),
        # position 0 holds 0, a sigma-left value, so only a state that
        # names 0 sigma-right reaches the word's start from the right
        "right-window-reaches-the-start": (
            (0, 1, 2), [None] * 3, None, None, 1, 0, False,
            "right window at 0 reaches the word's start",
        ),
        "left-window-swallows": (
            (0, 2, 3, 1), [None, (2, 3), None, None], None, None, 2, 2, True,
            "window at 2 swallowed the whole interval [2, 3]",
        ),
        "right-window-swallows": (
            (0, 1, 3, 2), [None, (2, 3), None, None], None, None, 2, 2, False,
            "window at 2 swallowed the whole interval [2, 3]",
        ),
    }

    @pytest.mark.parametrize("name", list(STATES))
    def test_each_assertion_fires(self, name):
        word, taus, images, pre, step, a, left, message = self.STATES[name]
        sigma, pos, taus, images, pre = _entry_state(word, taus, images, pre)
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            _check_entry_invariants(sigma, pos, taus, images, pre, step, a, left)

    @pytest.mark.parametrize("sigma", [FullCycle.canonical(6), SIGMA6], ids=str)
    def test_a_wrong_order_is_caught(self, sigma, monkeypatch):
        # placing the half-edges in reverse omega order breaks the product
        # the steps keep; unchecked, that surfaces only as a malformed
        # factor at the end, checked, as the step where it broke
        right = inverse_maps.omega
        monkeypatch.setattr(inverse_maps, "omega", lambda s, p: right(s, p)[::-1])
        with pytest.raises(AssertionError, match="partial product out of sync at step 3"):
            l_inverse(P6, sigma, check=True)


class TestUInverse:
    def test_trivial(self):
        assert str(u_inverse(MajorSequence((1,)), FullCycle.canonical(1))) == "(0 1)"

    def test_worked_example(self):
        f = u_inverse(M9, FullCycle.canonical(9))
        assert str(f) == "(1 2)(3 5)(1 3)(7 8)(0 6)(7 9)(0 7)(1 6)(4 5)"

    def test_round_trip_exhaustive(self):
        for n in range(1, 5):
            for sigma in unimodal_cycles(n):
                for p in enumerate_parking(n):
                    m = MajorSequence(tuple(n - a for a in p.entries))
                    f = u_inverse(m, sigma)
                    assert upper(f) == m.entries
                    assert f.product() == sigma.to_permutation()

    def test_rejects_non_unimodal(self):
        with pytest.raises(ValueError):
            u_inverse(MajorSequence((3, 3, 3)), FullCycle((0, 2, 1, 3)))


class TestPush:
    def test_worked_example(self):
        assert push(P9) == M9

    def test_single(self):
        assert push(ParkingFunction((0,))) == MajorSequence((1,))

    def test_empty(self):
        assert push(ParkingFunction(())) == MajorSequence(())

    def test_matches_the_inverse_map(self):
        sigma = {n: FullCycle.canonical(n) for n in range(5)}
        for n in range(5):
            for p in enumerate_parking(n):
                assert push(p).entries == upper(l_inverse(p, sigma[n]))

    def test_labels_never_descend(self):
        for p in enumerate_parking(4):
            assert all(b > a for a, b in zip(p.entries, push(p).entries))

    def test_rejects_upper_paths(self):
        with pytest.raises(ValueError):
            push(M9)

    def test_matches_the_lattice_walk(self):
        # exhaustively for n <= 6, then on seeded uniform parking functions
        # (cycle lemma: one diagonal shift of a random word parks)
        for n in range(7):
            for p in enumerate_parking(n):
                assert push(p).entries == push_by_lattice_walk(p)
        rng = random.Random(19)
        for n in rng.sample(range(7, 201), 40):
            word = [rng.randrange(n + 1) for _ in range(n)]
            shifts = (tuple((a + s) % (n + 1) for a in word) for s in range(n + 1))
            p = ParkingFunction(next(e for e in shifts if is_parking(e)))
            assert push(p).entries == push_by_lattice_walk(p)


class TestWitness:
    def test_worked_example(self):
        p, f1, f2 = non_unimodal_witness(FullCycle((0, 2, 1, 3)))
        assert p == ParkingFunction((0, 0, 1))
        assert str(f1) == "(0 2)(0 3)(1 3)"
        assert str(f2) == "(0 1)(0 3)(1 2)"

    def test_second_example_is_valid(self):
        sigma = parse_full_cycle("0 1 4 3 5 2")
        p, f1, f2 = non_unimodal_witness(sigma)
        assert f1 != f2
        assert lower(f1) == lower(f2) == p.entries
        assert f1.product() == f2.product() == sigma.to_permutation()

    def test_unimodal_has_no_witness(self):
        for sigma in unimodal_cycles(4):
            with pytest.raises(ValueError):
                non_unimodal_witness(sigma)

    def test_every_non_unimodal_cycle_yields_one(self):
        for n in range(3, 6):
            for sigma in full_cycles(n):
                if is_unimodal(sigma):
                    continue
                p, f1, f2 = non_unimodal_witness(sigma)
                assert f1.factors != f2.factors
                assert lower(f1) == lower(f2) == p.entries
                assert f1.product() == f2.product() == sigma.to_permutation()


class TestTheoremFour:
    def test_bijectivity_matches_unimodality(self):
        for n in range(1, 5):
            expected = (n + 1) ** (n - 1)
            for sigma in full_cycles(n):
                lowers = [lower(f) for f in enumerate_factorizations(sigma)]
                uppers = [upper(f) for f in enumerate_factorizations(sigma)]
                uni = is_unimodal(sigma)
                assert (len(set(lowers)) == expected) == uni
                assert (len(set(uppers)) == expected) == uni
