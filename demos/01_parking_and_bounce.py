#!/usr/bin/env python3
"""A tour of one parking function: path, area, bounce, and its tree.

Run:  python3 demos/01_parking_and_bounce.py
"""

from parkfact import (
    ParkingFunction,
    area,
    bounce,
    park_process,
    pinv,
    copinv,
    theta,
    to_path,
)
from parkfact.render import render_path_ascii
from parkfact.trees import format_tree

p = ParkingFunction((1, 3, 1, 7, 0, 7, 0, 1, 4))
print(f"parking function  p = {p}")
print(f"area(p)             = {area(p)}   (binom(9,2) - sum of entries)")

path = to_path(p)
print(f"path heights        = {path.heights}")
print(f"path labels         = {path.labels}   (ties broken decreasingly)")

contacts, value = bounce(p)
print(f"bounce contacts     = {contacts}")
print(f"bounce(p)           = {value}   (sum of n - i over the contacts)")
print()
print(render_path_ascii(path, contacts))

print("label word w        =", (0, *path.labels))
tree = theta(p)
print(f"theta(p)            = {format_tree(tree)}   (each label at height h hangs under w_h)")
C, D = tree.children(), tree.descendants()
print("C sets (children):  ", {v: C[v] for v in range(10) if C[v]})
print("D sets (descendants):",
      {v: sorted(D[v]) for v in range(10) if D[v]})
print(f"pinv(p), copinv(p)  = {pinv(p)}, {copinv(p)}   (sum = bounce)")

proc = park_process(p)
print(f"parking stalls      = {proc.stalls}")
print(f"jump(p)             = {proc.jump}   (equals area)")
print(f"cojump(p)           = {proc.cojump}")
