"""Reconstructing factorizations from their lower and upper sequences.

For a unimodal full cycle sigma, the lower-sequence map on F_sigma is a
bijection onto the parking functions, and l_inverse builds the preimage
directly: half-edges are processed in the omega order (largest entry
first), and each step closes one arc, merging two adjacent windows of
sigma's visit word.  The partial product is therefore maintained as a
set of word intervals, which the contiguity invariant makes exact.  With
check=True each step asserts the invariants on the raw images of the
partial product (swap_product), one window scan giving contiguity and
the cycle count (window_cycles).

For non-unimodal sigma no inverse exists, and non_unimodal_witness
produces the certifying collision: two factorizations sharing one lower
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factorizations import Factorization, lower, upper
from .parking import (
    LabelledDyckPath,
    MajorSequence,
    ParkingFunction,
    complement,
    to_path,
)
from .permutations import (
    FullCycle,
    Transposition,
    is_unimodal,
    reflect_conjugate,
    swap_product,
    window_cycles,
)


def sigma_sides(sigma: FullCycle) -> tuple[frozenset[int], frozenset[int]]:
    """Partition of [0, n-1] into sigma-left and sigma-right values.

    A value is sigma-left when it appears before the peak n in the visit
    word and sigma-right when it appears after; n itself is neither.
    """
    word = sigma.word
    peak = word.index(sigma.n)
    return frozenset(word[:peak]), frozenset(word[peak + 1 :])


@dataclass(frozen=True, slots=True)
class OmegaOrder:
    """Half-edge processing order for one (sigma, p) pair.

    order lists the 1-based indices of p grouped by entry value from
    n-1 down to 0, each group read increasingly for sigma-left values and
    decreasingly for sigma-right ones.  side[j-1] records which case the
    value of index j falls in.
    """

    order: tuple[int, ...]
    side: tuple[str, ...]

    def side_of(self, index: int) -> str:
        return self.side[index - 1]


def omega(sigma: FullCycle, p: ParkingFunction) -> OmegaOrder:
    if sigma.n != p.n:
        raise ValueError(f"size mismatch: [{sigma.n}] vs [{p.n}]")
    if not is_unimodal(sigma):
        raise ValueError(f"{sigma} is not unimodal")
    left_values, _ = sigma_sides(sigma)
    n = p.n
    order: list[int] = []
    for value in range(n - 1, -1, -1):
        group = [j for j in range(1, n + 1) if p.entries[j - 1] == value]
        if value not in left_values:
            group.reverse()
        order.extend(group)
    sides = tuple(
        "left" if p.entries[j - 1] in left_values else "right"
        for j in range(1, n + 1)
    )
    result = OmegaOrder(tuple(order), sides)
    entries_along = [p.entries[j - 1] for j in result.order]
    if any(
        entries_along[i] < entries_along[i + 1] for i in range(len(entries_along) - 1)
    ):
        raise AssertionError(f"omega order is not weakly decreasing for {p}")
    return result


def _apply_pair(pair: tuple[int, int], x: int) -> int:
    a, b = pair
    if x == a:
        return b
    if x == b:
        return a
    return x


def _check_entry_invariants(
    sigma: FullCycle,
    taus: list[tuple[int, int] | None],
    bounds_of: dict[int, tuple[int, int]],
    comp: list[int],
    step: int,
    a: int,
    k: int,
) -> None:
    # a is the entry placed at this step and k its position in the word;
    # the partial product multiplies the factors placed so far in index order
    n = sigma.n
    word = sigma.word
    images = swap_product([pair for pair in taus if pair is not None], n)
    cycles = window_cycles(images, word)
    if cycles is None:
        raise AssertionError(f"partial product {images} lost contiguity at step {step}")
    if cycles != n + 2 - step:
        raise AssertionError(
            f"partial product has {cycles} cycles at step {step}, "
            f"expected {n + 2 - step}"
        )
    for cid in set(comp):
        lo, hi = bounds_of[cid]
        for x in range(lo, hi):
            if images[word[x]] != word[x + 1]:
                raise AssertionError("window structure out of sync with product")
        if images[word[hi]] != word[lo]:
            raise AssertionError("window structure out of sync with product")
    if any(images[x] != x for x in range(a)):
        raise AssertionError(f"partial product moves a value below {a}")
    lo, hi = bounds_of[comp[k]]
    if set(word[lo : hi + 1]) >= set(range(a, n + 1)):
        raise AssertionError(f"window at {a} swallowed the whole interval [{a}, {n}]")


def l_inverse(
    p: ParkingFunction, sigma: FullCycle, check: bool = False
) -> Factorization:
    """The factorization in F_sigma whose lower sequence is p.

    Requires sigma unimodal.  With check=True the loop invariants
    (contiguity, cycle count, fixed prefix, bounded window) are asserted
    on every iteration.
    """
    n = sigma.n
    if p.n != n:
        raise ValueError(f"size mismatch: [{p.n}] vs [{n}]")
    if not is_unimodal(sigma):
        raise ValueError(f"{sigma} is not unimodal")
    word = sigma.word
    pos = sigma.positions()
    om = omega(sigma, p)

    taus: list[tuple[int, int] | None] = [None] * (n + 1)
    comp = list(range(n + 1))
    bounds_of = {i: (i, i) for i in range(n + 1)}

    def merge(left_id: int, right_id: int) -> None:
        lo_l, _ = bounds_of[left_id]
        lo_r, hi_r = bounds_of[right_id]
        for position in range(lo_r, hi_r + 1):
            comp[position] = left_id
        bounds_of[left_id] = (lo_l, hi_r)
        del bounds_of[right_id]

    for step, j in enumerate(om.order, start=1):
        a = p.entries[j - 1]
        k = pos[a]
        if check:
            _check_entry_invariants(sigma, taus, bounds_of, comp, step, a, k)
        if om.side_of(j) == "left":
            cid = comp[k]
            lo, hi = bounds_of[cid]
            if lo != k:
                raise AssertionError(f"left window at {a} does not start at {a}")
            if hi + 1 > n:
                raise AssertionError(f"left window at {a} reaches the word's end")
            b = word[hi + 1]
            for r in range(n, j, -1):
                if taus[r] is not None:
                    b = _apply_pair(taus[r], b)
            if b <= a:
                raise AssertionError(f"computed partner {b} not above {a}")
            taus[j] = (a, b)
            merge(cid, comp[hi + 1])
        else:
            cid = comp[k]
            lo, hi = bounds_of[cid]
            if hi != k:
                raise AssertionError(f"right window at {a} does not end at {a}")
            if lo - 1 < 0:
                raise AssertionError(f"right window at {a} reaches the word's start")
            b = word[lo - 1]
            for r in range(1, j):
                if taus[r] is not None:
                    b = _apply_pair(taus[r], b)
            if b <= a:
                raise AssertionError(f"computed partner {b} not above {a}")
            taus[j] = (a, b)
            merge(comp[lo - 1], cid)

    factors = tuple(Transposition(pair[0], pair[1]) for pair in taus[1:])
    result = Factorization(factors, n)
    if result.product() != sigma.to_permutation():
        raise AssertionError(f"reconstruction for {p} missed {sigma}")
    return result


def u_inverse(m: MajorSequence, sigma: FullCycle) -> Factorization:
    """The factorization in F_sigma whose upper sequence is m.

    Computed by reflection: complement m, invert the lower map over the
    reflected cycle, and reflect the result back.  One algorithm, one set
    of bugs.
    """
    if m.n != sigma.n:
        raise ValueError(f"size mismatch: [{m.n}] vs [{sigma.n}]")
    if not is_unimodal(sigma):
        raise ValueError(f"{sigma} is not unimodal")
    mirrored = l_inverse(complement(m), reflect_conjugate(sigma))
    result = reflect_conjugate(mirrored)
    if upper(result) != m.entries:
        raise AssertionError(f"upper-sequence reconstruction missed {m}")
    return result


def push_upper_path(path_lower: LabelledDyckPath) -> LabelledDyckPath:
    """Slide the lower path's labels northeast to produce the upper path.

    Each label starts at the left endpoint of its step and is processed
    left to right; it advances diagonally while off the path or on a
    point whose original label is larger, and rests at the first path
    point that is unlabelled or carries a smaller label.  Its resting
    height is its height on the upper path.
    """
    if path_lower.side != "below":
        raise ValueError("push_upper_path expects a lower (below-side) path")
    n = path_lower.n
    if n == 0:
        return LabelledDyckPath((), (), "above")
    on_path = set(path_lower.lattice_points())
    start_label = {
        (j - 1, path_lower.heights[j - 1]): path_lower.labels[j - 1]
        for j in range(1, n + 1)
    }
    rest_height: dict[int, int] = {}
    for j in range(1, n + 1):
        label = path_lower.labels[j - 1]
        x, y = j - 1, path_lower.heights[j - 1]
        while True:
            x += 1
            y += 1
            if x > n:
                raise AssertionError(f"label {label} escaped the grid")
            if (x, y) in on_path:
                original = start_label.get((x, y))
                if original is None or original < label:
                    break
        rest_height[label] = y
    entries = tuple(rest_height[label] for label in range(1, n + 1))
    return to_path(MajorSequence(entries))


def non_unimodal_witness(
    sigma: FullCycle,
) -> tuple[ParkingFunction, Factorization, Factorization]:
    """A parking function with two distinct preimages under the lower map.

    Exists exactly when sigma has a valley s_(i-1) > s_i < s_(i+1); the
    smallest valley index is used so the output is deterministic.  For
    unimodal sigma this raises, since the lower map is injective there.
    """
    word = sigma.word
    n = sigma.n
    valley = None
    for i in range(1, n):
        if word[i - 1] > word[i] < word[i + 1]:
            valley = i
            break
    if valley is None:
        raise ValueError(f"{sigma} is unimodal; no witness exists")

    p = ParkingFunction((0,) * (n - 1) + (word[valley],))

    def star_chain(skip: int, last: Transposition) -> Factorization:
        factors = [
            Transposition(0, word[k]) for k in range(1, n + 1) if k != skip
        ]
        factors.append(last)
        return Factorization(tuple(factors), n)

    f1 = star_chain(valley, Transposition(word[valley], word[valley + 1]))
    f2 = star_chain(valley - 1, Transposition(word[valley], word[valley - 1]))

    target = sigma.to_permutation()
    for f in (f1, f2):
        if f.product() != target or lower(f) != p.entries:
            raise AssertionError(f"witness construction failed for {sigma}")
    if f1 == f2:
        raise AssertionError(f"witness factorizations coincide for {sigma}")
    return p, f1, f2
