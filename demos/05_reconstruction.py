#!/usr/bin/env python3
"""Rebuilding a factorization from its parking function.

For a unimodal cycle the lower-sequence map is a bijection, and the
reconstruction is explicit; for any other cycle two factorizations
collide, and the witness is explicit too.

Run:  python3 demos/05_reconstruction.py
"""

from parkfact import (
    FullCycle,
    MajorSequence,
    ParkingFunction,
    l_inverse,
    lower,
    non_unimodal_witness,
    omega,
    parse_full_cycle,
    push,
    u_inverse,
    upper,
)
from parkfact.polynomials import tree_recursion_I
from parkfact.factorizations import factorization_enumerator
from parkfact.permutations import unimodal_cycles

p = ParkingFunction((2, 4, 0, 1, 4, 0))
print(f"p = {p}")
for word in ("0 1 2 3 4 5 6", "0 2 3 5 6 4 1"):
    sigma = parse_full_cycle(word)
    order = omega(sigma, p)
    f = l_inverse(p, sigma, check=True)
    print(f"  sigma = {sigma}: processing order {order}")
    print(f"    l_inverse(p) = {f}")
    assert lower(f) == p.entries
print()

m = MajorSequence((2, 5, 3, 8, 6, 9, 7, 6, 5))
g = u_inverse(m, FullCycle.canonical(9))
print(f"u_inverse({m}) = {g}")
print(f"  upper sequence check: {upper(g) == m.entries}")
print()

p9 = ParkingFunction((1, 3, 1, 7, 0, 7, 0, 1, 4))
print(f"pushing the labels of {p9} northeast gives the upper path of")
print(f"  {push(p9)}")
print()

sigma = FullCycle((0, 2, 1, 3))
pw, f1, f2 = non_unimodal_witness(sigma)
print(f"{sigma} is not unimodal; the lower map collides on p = {pw}:")
print(f"  {f1}  and  {f2}")
print()

n = 4
reference = tree_recursion_I(n)[n]
matching = [
    str(s) for s in unimodal_cycles(n)
    if factorization_enumerator(s) == reference
]
print(f"unimodal cycles on [0,{n}] whose area enumerator equals I_{n}(q,t):")
for word in matching:
    print(f"  {word}")
print(f"({len(matching)} of {2 ** (n - 1)};"
      " which cycles match in general is open territory)")
