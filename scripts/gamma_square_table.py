#!/usr/bin/env python3
"""Tabulate gamma^2 for quadratic algebras of increasing size.

gamma^2 is the scalar -(1/48) sum f_abc^2; the table cross-checks the
closed form against the actual Clifford product gamma * gamma on the
trivial representation, and against -k/8, for the sums of k >= 1 copies
of so(3), where the sum grows linearly in the number of blocks.

Usage: python scripts/gamma_square_table.py [--blocks K]
"""

import argparse
import sys
from fractions import Fraction

from weil.lie import BilinearForm, LieData, trivial_rep
from weil.linalg import Matrix, format_scalar
from weil.quantum import QuantumAlgebra, gamma_square_formula
from weil.render import render


def so3_blocks(k):
    entries = {}
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1}
    for block in range(k):
        off = 3 * block
        for (a, b, c), v in eps.items():
            entries[(a + off, b + off, c + off)] = Fraction(v)
    n = 3 * k
    return LieData(n, entries, form=BilinearForm(Matrix.identity(n)),
                   name=f"so3^{k}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=4)
    args = parser.parse_args(argv)

    print("blocks  dim  gamma^2")
    for k in range(1, args.blocks + 1):
        lie = so3_blocks(k)
        q, value = QuantumAlgebra(lie, trivial_rep(lie)), gamma_square_formula(lie)
        square = q.gamma * q.gamma
        if square != q.scalar(value):
            print(f"mismatch: gamma * gamma = {render(square)} on so3^{k}, "
                  f"-(1/48) sum f^2 = {format_scalar(value)}", file=sys.stderr)
            return 1
        if value != Fraction(-k, 8):
            print(f"mismatch: gamma^2 = {format_scalar(value)} on so3^{k}, "
                  f"expected {format_scalar(Fraction(-k, 8))}", file=sys.stderr)
            return 1
        print(f"{k:>6}  {lie.dim:>3}  {format_scalar(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
