#!/usr/bin/env python3
"""Exponential sums over F_q^*: values, magnitudes, and the classical bounds.

Everything here is a direct O(q) loop over the nonzero residues, so the
famous magnitude facts are checked against first principles:

  * quadratic Gauss sums have magnitude exactly sqrt(q),
  * Kloosterman sums obey |K(a,b)| <= 2 sqrt(q) when ab != 0,
  * the degenerate row K(0,b) collapses to -1 by orthogonality,
  * Salie sums (the eta-twisted variant) obey the same 2 sqrt(q) bound.
"""

import math

from ffharm import FieldCtx, gauss, kloosterman, salie
from ffharm.field import is_odd_prime

print("=" * 72)
print("Small explicit values over F_3")
print("=" * 72)
ctx = FieldCtx(3, 2)
print(f"G_1      = {gauss(ctx, 1):+.6f}   (two unit terms: chi(1) - chi(2) = i sqrt(3))")
print(f"K(1,1)   = {kloosterman(ctx, 1, 1):+.6f}   (chi(2) + chi(1) = -1)")
print(f"K(2,1)   = {kloosterman(ctx, 2, 1):+.6f}   (both terms hit chi(0))")
print(f"S(1,1)   = {salie(ctx, 1, 1):+.6f}   (chi(2) - chi(1) = -i sqrt(3))")

print()
print("=" * 72)
print("Magnitude sweep: worst deviation / slack per prime")
print("=" * 72)
print(f"{'q':>4} {'max | |G_a| - sqrt(q) |':>26} {'max |K|/2sqrt(q)':>18} {'max |S|/2sqrt(q)':>18}")
for q in [p for p in range(3, 44) if is_odd_prime(p)]:
    ctx = FieldCtx(q, 2)
    root = math.sqrt(q)
    g_dev = max(abs(abs(gauss(ctx, a)) - root) for a in range(1, q))
    k_max = max(
        abs(kloosterman(ctx, a, b)) for a in range(1, q) for b in range(1, q)
    )
    s_max = max(abs(salie(ctx, a, b)) for a in range(q) for b in range(q))
    print(f"{q:>4} {g_dev:>26.3e} {k_max / (2 * root):>18.4f} {s_max / (2 * root):>18.4f}")

print()
print("The Kloosterman ratio creeping toward 1 is the expected extremal")
print("behavior; it never crosses it.  The degenerate row is exact:")
q = 13
ctx = FieldCtx(q, 2)
worst = max(abs(kloosterman(ctx, 0, b) + 1) for b in range(1, q))
print(f"max_b |K(0,b) + 1| over F_{q}^* = {worst:.2e}")
