#!/usr/bin/env python3
"""Spheres in F_q^d: cardinalities and Fourier transforms, two ways.

The brute-force route sums characters over an enumerated point set.  The
closed route evaluates one Gauss-sum power times a Kloosterman sum (d
even) or a Salie sum (d odd).  This script compares the two exhaustively,
then tabulates the decay of the transform away from the origin, including
the exactly-pinned case: even d, zero radius, off the null cone.
"""

import numpy as np

from ffharm import (
    FieldCtx,
    sphere_count_closed,
    sphere_ft_closed_grid,
    sphere_sizes,
    verify_closed_form,
)

print("=" * 72)
print("Cardinalities: convolution of squares vs closed form at x = 0")
print("=" * 72)
for q, d in [(3, 2), (5, 3), (7, 4)]:
    ctx = FieldCtx(q, d)
    sizes = sphere_sizes(ctx)
    closed = [sphere_count_closed(ctx, j) for j in range(q)]
    print(f"q={q} d={d}: convolved  {list(sizes)}")
    print(f"        closed     {closed}   (q^(d-1) = {q ** (d - 1)})")

print()
print("=" * 72)
print("Exhaustive oracle comparison over every radius and every dual point")
print("=" * 72)
for q in (3, 5, 7):
    for d in (2, 3, 4):
        max_err, first_bad = verify_closed_form(FieldCtx(q, d))
        status = "agree" if first_bad is None else f"MISMATCH at {first_bad}"
        print(f"q={q} d={d}: max |naive - closed| = {max_err:.2e}  ({status})")

print()
print("=" * 72)
print("Decay away from the origin")
print("=" * 72)
print("Normalized peaks max_x |FT| / q^((d-1)/2); the j=0 column in even")
print("dimension is measured against q^(d/2) instead, where the null cone")
print("contributes the larger term.")
for q, d in [(5, 3), (5, 4), (7, 5)]:
    ctx = FieldCtx(q, d)
    row = []
    for j in range(q):
        mags = np.abs(sphere_ft_closed_grid(ctx, j))[1:]
        scale = q ** (d / 2) if (d % 2 == 0 and j == 0) else q ** ((d - 1) / 2)
        row.append(f"{mags.max() / scale:.3f}")
    print(f"q={q} d={d}: {row}")

print()
print("Exact magnitude at zero radius, even d, off the null cone:")
for q in (3, 5, 7):
    ctx = FieldCtx(q, 4)
    vals = np.abs(sphere_ft_closed_grid(ctx, 0))
    mask = ctx.grid_norms() != 0
    dev = np.abs(vals[mask] - q).max()  # q^{(d-2)/2} = q at d = 4
    print(f"q={q} d=4: | |FT| - q^((d-2)/2) | <= {dev:.2e} on all {mask.sum()} points")
