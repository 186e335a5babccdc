#!/usr/bin/env python3
"""Walk through the polynomial family and its moment rational functions.

The building block of everything here is the shifted Legendre polynomial
P_n on [0, 1] and its moment M(s) = integral_0^1 x**s P_n(x) dx, which is
a rational function of s with poles at the negative integers.
"""

from zetalab import (
    Poly,
    integrate_poly_01,
    legendre_coeffs,
    moment_closed_form,
    moment_from_coeffs,
)

print("Shifted Legendre polynomials (integer coefficients, lowest degree first):")
for n in range(6):
    print(f"  P_{n}: {[int(c) for c in legendre_coeffs(n).coeffs]}")

print()
print("Orthogonality on [0,1] is exact rational arithmetic, no quadrature:")
for n in range(4):
    row = []
    for m in range(4):
        val = integrate_poly_01(legendre_coeffs(n) * legendre_coeffs(m))
        row.append(str(val))
    print("  " + "  ".join(f"{v:>6}" for v in row))
print("  (diagonal is 1/(2n+1), off-diagonal vanishes)")

print()
print("The moment M(s) = sum_l a_l/(s+l+1) as a (numerator, denominator) pair;")
print("the denominator is the product of the (s+l+1), so no gcd is needed:")
for n in range(4):
    num, den = moment_from_coeffs(legendre_coeffs(n))
    print(f"  n={n}: numerator {[str(c) for c in num.coeffs]}  /  denominator {[str(c) for c in den.coeffs]}")

print()
print("Two routes, one function: the coefficient-sum moment is ground truth,")
print("the product form is an accelerator validated against it.")
for n in range(8):
    same = moment_closed_form(n) == moment_from_coeffs(legendre_coeffs(n))
    print(f"  n={n}: product form == coefficient sum: {same}")

print()
print("Moments also work for any integer polynomial, e.g. R = 1 + x^3 - 5x^4:")
num, den = moment_from_coeffs(Poly([1, 0, 0, 1, -5]))
print(f"  M(0) = {num(0) / den(0)}   (equals integral of R on [0,1] = {integrate_poly_01(Poly([1, 0, 0, 1, -5]))})")
print(f"  M(3) = {num(3) / den(3)}")
