"""
Noncrossing partition lattices of reflection groups
===================================================

The interval from the identity to a Coxeter element in the absolute
order on a finite reflection group is the noncrossing partition lattice.
Closed product formulas give its order-complex h-polynomial; for the
classical families a brute-force lattice build cross-checks them.
"""

from chainpoly import (
    CoxeterType,
    build_reflection_group,
    chain_polynomial,
    is_real_rooted,
    nc_chain_polynomial,
    nc_h_formula,
    noncrossing_lattice,
    order_h_polynomial,
    symmetric_decomposition,
    unimodal_peaks,
)

# Formula values for a few types.
for name in ["A3", "B3", "D4", "I2:7", "H3", "E8"]:
    t = CoxeterType.parse(name)
    print("%-5s h =" % name, nc_h_formula(t).coeffs)

# Build the type A3 lattice explicitly (the symmetric group on four
# letters) and compare both polynomials with the formulas.
t = CoxeterType.parse("A3")
group = build_reflection_group(t)
lattice = noncrossing_lattice(group)
print("\nA3 lattice size:", len(lattice.elements))
print("level sizes:", [len(level) for level in lattice.levels])
print("h from the lattice: ", order_h_polynomial(lattice.proper_part()).coeffs)
print("h from the formula: ", nc_h_formula(t).coeffs)
print("chain polynomial:   ", chain_polynomial(lattice).coeffs)
print("chain by formula:   ", nc_chain_polynomial(t).coeffs)

# Certifying the formulas: real-rootedness of h and the chain
# polynomial, the symmetric decomposition of h with respect to rank - 1
# and the peak location.
t = CoxeterType.parse("E8")
h = nc_h_formula(t)
dec = symmetric_decomposition(h, t.rank - 1)
print("\nE8 report")
print("h real-rooted:        ", is_real_rooted(h))
print("chain real-rooted:    ", is_real_rooted(nc_chain_polynomial(t)))
print("symmetric part:       ", dec.symmetric.coeffs)
print("shifted part:         ", dec.shifted.coeffs)
print("decomposition accepted:", dec.nonneg_realrooted())
print("peaks at:             ", unimodal_peaks(h), "expected:", t.rank // 2)
