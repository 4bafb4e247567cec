"""Reconstructing factorizations from their lower and upper sequences.

For a unimodal full cycle sigma, the lower-sequence map on F_sigma is a
bijection onto the parking functions, and l_inverse builds the preimage
directly: half-edges are processed in the omega order (largest entry
first), and each step closes one arc, merging two adjacent windows of
sigma's visit word.  The partial product is kept as its images and their
inverse; by the contiguity invariant its cycles are the windows, so each
window's end points are read off the product.  One placement step serves
both sides of the peak: a sigma-right entry is placed as a sigma-left one
would be, on the inverse product and walking the word backwards.  With
check=True each step checks the product against swap_product of the
placed factors and one window scan gives contiguity and the cycle count
(window_cycles).

l_inverse and push validate, run a private kernel on raw entries
(_l_inverse gives raw pairs, _push raw heights) and build the value.
_l_inverse(sigma, check) does the per-cycle set-up once and returns the
placement of one entry tuple.

For non-unimodal sigma no inverse exists, and non_unimodal_witness
produces the certifying collision: two factorizations sharing one lower
sequence.
"""

from __future__ import annotations

from typing import Callable

from .factorizations import Factorization, reflect_conjugate
from .parking import MajorSequence, ParkingFunction, _label_groups, complement
from .permutations import FullCycle, _valley, is_unimodal, swap_product, window_cycles


def sigma_sides(sigma: FullCycle) -> tuple[frozenset[int], frozenset[int]]:
    """Partition of [0, n-1] into sigma-left and sigma-right values.

    A value is sigma-left when it appears before the peak n in the visit
    word and sigma-right when it appears after; n itself is neither.
    """
    word = sigma.word
    peak = word.index(sigma.n)
    return frozenset(word[:peak]), frozenset(word[peak + 1 :])


def _left_values(sigma: FullCycle) -> frozenset[int]:
    """sigma's left values, once the unimodality test has passed."""
    if not is_unimodal(sigma):
        raise ValueError(f"{sigma} is not unimodal")
    return sigma_sides(sigma)[0]


def _order(entries: tuple[int, ...], left_values) -> tuple[int, ...]:
    """omega on raw entries, with sigma's left values given."""
    groups = _label_groups(entries)  # each group in decreasing order
    order: list[int] = []
    for value in range(len(entries) - 1, -1, -1):
        order.extend(reversed(groups[value]) if value in left_values else groups[value])
    return tuple(order)


def omega(sigma: FullCycle, p: ParkingFunction) -> tuple[int, ...]:
    """Half-edge processing order for one (sigma, p) pair.

    The 1-based indices of p grouped by entry value from n-1 down to 0,
    each group read increasingly for sigma-left values and decreasingly
    for sigma-right ones.
    """
    if sigma.n != p.n:
        raise ValueError(f"size mismatch: [{sigma.n}] vs [{p.n}]")
    return _order(p.entries, _left_values(sigma))


def _check_entry_invariants(
    sigma: FullCycle,
    pos: dict[int, int],
    taus: list[tuple[int, int] | None],
    images: list[int],
    pre: list[int],
    step: int,
    a: int,
    left: bool,
) -> None:
    # a is the entry placed at this step; images, with its inverse pre, is
    # the partial product of the factors placed so far in index order
    n = sigma.n
    placed = swap_product([pair for pair in taus if pair is not None], n)
    if images != placed or [pre[y] for y in images] != list(range(n + 1)):
        raise AssertionError(f"partial product out of sync at step {step}")
    cycles = window_cycles(images, sigma.word)
    if cycles is None:
        raise AssertionError(f"partial product {images} lost contiguity at step {step}")
    if cycles != n + 2 - step:
        raise AssertionError(
            f"partial product has {cycles} cycles at step {step}, "
            f"expected {n + 2 - step}"
        )
    if images[:a] != list(range(a)):
        raise AssertionError(f"partial product moves a value below {a}")
    # a window is traversed in word order, so the left case's window runs
    # from a to pre[a] and the right case's from images[a] to a; the ends
    # come out reversed when a is not at that end
    k = pos[a]
    lo, hi = (k, pos[pre[a]]) if left else (pos[images[a]], k)
    side, near, far = ("left", "start", "end") if left else ("right", "end", "start")
    if lo > hi:
        raise AssertionError(f"{side} window at {a} does not {near} at {a}")
    if (left and hi == n) or (not left and lo == 0):
        raise AssertionError(f"{side} window at {a} reaches the word's {far}")
    # the window holds hi - lo + 1 values, so only one that long can hold [a, n]
    if hi - lo >= n - a and set(sigma.word[lo : hi + 1]) >= set(range(a, n + 1)):
        raise AssertionError(f"window at {a} swallowed the whole interval [{a}, {n}]")


def _l_inverse(sigma: FullCycle, check: bool = False) -> Callable:
    """The raw kernel of l_inverse under the unimodal sigma: the per-cycle
    set-up runs once, and the function returned places one entry tuple in
    omega order and gives its raw pairs.  With check every step asserts
    the loop invariants and the product of the pairs must be sigma."""
    n, word, left, pos = sigma.n, sigma.word, _left_values(sigma), sigma.positions()
    peak = pos[n]
    target = list(sigma.to_permutation().images) if check else None

    def place(entries: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        taus: list[tuple[int, int] | None] = [None] * (n + 1)
        images = list(range(n + 1))
        pre = list(range(n + 1))
        for step, j in enumerate(_order(entries, left), start=1):
            a = entries[j - 1]
            # a sigma-right entry is placed as a sigma-left one, on the
            # inverse product (end) and walking the word backwards (d)
            end, back, d = (pre, images, 1) if pos[a] < peak else (images, pre, -1)
            if check:
                _check_entry_invariants(sigma, pos, taus, images, pre, step, a, d > 0)
            # the window at a meets its neighbour in direction d at c; the
            # factors on the far side of j never move a, so carrying c
            # through them gives the partner b
            c = word[pos[end[a]] + d]
            b = c
            for r in range(n, j, -1) if d > 0 else range(1, j):
                pair = taus[r]
                if pair is not None and b in pair:
                    b = pair[0] + pair[1] - b
            if check and b <= a:
                raise AssertionError(f"computed partner {b} not above {a}")
            taus[j] = (a, b)
            # placing (a b) exchanges the entries of end at a and c
            end[a], end[c] = end[c], end[a]
            back[end[a]], back[end[c]] = a, c

        pairs = tuple(taus[1:])
        if check and (None in pairs or swap_product(pairs, n) != target):
            raise AssertionError(f"reconstruction for {','.join(map(str, entries))} missed {sigma}")
        return pairs

    return place


def l_inverse(
    p: ParkingFunction, sigma: FullCycle, check: bool = False
) -> Factorization:
    """The factorization in F_sigma whose lower sequence is p.

    Requires sigma unimodal.  The factor at index j is (a, b), a = p_j,
    and factors are placed in omega order while the partial product is
    kept as its images and their inverse, two swaps per step.  With
    check=True every step asserts the loop invariants (product in sync
    with the placed factors, contiguity, cycle count, fixed prefix,
    bounded window, window ends, partner above a), and the product of the
    result is checked to be sigma.
    """
    if sigma.n != p.n:
        raise ValueError(f"size mismatch: [{sigma.n}] vs [{p.n}]")
    return Factorization(_l_inverse(sigma, check)(p.entries), sigma.n)


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
    return reflect_conjugate(mirrored)


def _push(entries: tuple[int, ...]) -> tuple[int, ...]:
    """push on the raw entries of a parking function."""
    n = len(entries)
    rest = [0] * n
    waiting: list[list[int]] = [[] for _ in range(n + 1)]  # by diagonal x - y
    x = 0
    for y, group in enumerate(_label_groups(entries)):
        for tag in (*group, 0):
            stack = waiting[x - y]
            while stack and stack[-1] > tag:
                rest[stack.pop() - 1] = y
            if tag:
                stack.append(tag)
                x += 1
    if any(waiting):
        raise AssertionError(f"a label of {','.join(map(str, entries))} never came to rest")
    return tuple(rest)


def push(p: ParkingFunction) -> MajorSequence:
    """Slide the labels of p's lower path northeast; their resting heights
    are the upper sequence of p's canonical preimage.

    Each label starts at the left end of its step and moves along its
    diagonal x - y.  It rests at the first later path point on that
    diagonal that is unlabelled or starts a step with a smaller label: its
    next smaller element, if each point is tagged with the label of the
    step it starts, and 0 where the path leaves a height.  One walk along
    the path, with a stack of waiting labels per diagonal, rests them all.
    """
    if not isinstance(p, ParkingFunction):
        raise ValueError("push expects a parking function")
    return MajorSequence(_push(p.entries))


def non_unimodal_witness(
    sigma: FullCycle,
) -> tuple[ParkingFunction, Factorization, Factorization]:
    """A parking function with two distinct preimages under the lower map.

    Exists exactly when sigma has a valley s_(i-1) > s_i < s_(i+1); the
    smallest valley index is used so the output is deterministic.  For
    unimodal sigma this raises, since the lower map is injective there.
    The unimodal verify suite checks each witness it draws.
    """
    word = sigma.word
    n = sigma.n
    valley = _valley(word)
    if valley is None:
        raise ValueError(f"{sigma} is unimodal; no witness exists")

    p = ParkingFunction((0,) * (n - 1) + (word[valley],))

    def star_chain(skip: int, last: tuple[int, int]) -> Factorization:
        return Factorization([(0, word[k]) for k in range(1, n + 1) if k != skip] + [last], n)

    f1 = star_chain(valley, (word[valley], word[valley + 1]))
    f2 = star_chain(valley - 1, (word[valley], word[valley - 1]))
    return p, f1, f2
