import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkfact.factorizations import (
    enumerate_factorizations,
    lower,
    upper,
)
from parkfact.parking import is_parking
from parkfact.inverse_maps import (
    l_inverse,
    non_unimodal_witness,
    omega,
    push_upper_path,
    sigma_sides,
    u_inverse,
)
from parkfact.parking import (
    MajorSequence,
    ParkingFunction,
    enumerate_parking,
    to_path,
)
from parkfact.permutations import FullCycle, full_cycles, is_unimodal, parse_full_cycle, unimodal_cycles

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
        om = omega(SIGMA6, P6)
        assert om.order == (5, 2, 1, 4, 3, 6)

    def test_canonical_all_left(self):
        sigma = FullCycle.canonical(4)
        left, right = sigma_sides(sigma)
        assert left == {0, 1, 2, 3} and right == frozenset()
        assert omega(sigma, ParkingFunction((0, 0, 0, 0))).order == (1, 2, 3, 4)

    def test_entries_weakly_decreasing_along_order(self):
        for n in range(1, 6):
            for sigma in unimodal_cycles(n):
                for p in enumerate_parking(n):
                    om = omega(sigma, p)
                    along = [p.entries[j - 1] for j in om.order]
                    assert along == sorted(along, reverse=True)

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
        assert push_upper_path(to_path(p)) == to_path(
            MajorSequence(upper(f))
        )
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
        assert push_upper_path(to_path(P9)) == to_path(M9)

    def test_single(self):
        pushed = push_upper_path(to_path(ParkingFunction((0,))))
        assert pushed == to_path(MajorSequence((1,)))

    def test_empty(self):
        pushed = push_upper_path(to_path(ParkingFunction(())))
        assert pushed.side == "above" and pushed.n == 0

    def test_matches_the_inverse_map(self):
        sigma = {n: FullCycle.canonical(n) for n in range(5)}
        for n in range(5):
            for p in enumerate_parking(n):
                expected = to_path(
                    MajorSequence(upper(l_inverse(p, sigma[n])))
                )
                assert push_upper_path(to_path(p)) == expected

    def test_labels_never_descend(self):
        for p in enumerate_parking(4):
            lower_path = to_path(p)
            pushed = push_upper_path(lower_path)
            start = {
                lower_path.labels[j]: lower_path.heights[j] for j in range(4)
            }
            rest = {pushed.labels[j]: pushed.heights[j] for j in range(4)}
            assert all(rest[label] > start[label] for label in start)

    def test_rejects_upper_paths(self):
        with pytest.raises(ValueError):
            push_upper_path(to_path(M9))


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
