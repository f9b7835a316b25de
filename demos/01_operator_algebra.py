"""Operator-algebra building blocks.

Walks through the primitives everything else is built from: the Pauli
conventions, tensor embedding, the truncated ladder pair, realified rank,
and small Lie closures -- including how their dimension grows with the
environment truncation, the growth that motivates truncating the
environment in the first place.
"""

import numpy as np

import qdecouple as qd
from qdecouple.algebra import SIGMA_X, SIGMA_Y, SIGMA_Z

print("== Pauli conventions ==")
print("sigma_z =\n", SIGMA_Z.real)
print("[sigma_x, sigma_y] == 2i sigma_z:",
      np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z))

print("\n== Tensor embedding ==")
space = qd.HilbertSpace((("qubit1", 2), ("qubit2", 2), ("env", 3)))
sx2 = qd.embed_product(space, {"qubit2": SIGMA_X})
psi = qd.basis_state(space, (0, 1, 2))
out = sx2.matrix @ psi.amplitudes
print("sigma_x on qubit 2 of |0>|1>|2> lands on |0>|0>|2>:",
      np.allclose(out, qd.basis_state(space, (0, 0, 2)).amplitudes))

print("\n== Truncated ladder pair (N = 3) ==")
b, bd = qd.ladder_pair(3)
print("b =\n", np.round(b.matrix.real, 4))
ccr = b.matrix @ bd.matrix - bd.matrix @ b.matrix
print("[b, b†] diagonal (identity except the top level):", np.round(np.diag(ccr).real, 4))
w = 0.3 + 0.4j
f = qd.field_quadrature(w, 3)
print("(w b† + w* b)^2 |0> =", np.round(f.matrix @ (f.matrix @ np.eye(3)[0]), 4),
      " (|w|^2, 0, sqrt(2) w^2)")

print("\n== Realified rank ==")
v = np.array([1.0 + 2.0j, 0.5])
print("rank{v, iv} =", qd.realified_rank([v, 1j * v]), " rank{v, 2v} =", qd.realified_rank([v, 2 * v]))
vs = [np.array([-1j, 0]), np.array([0, 1j]), np.array([0, -1]), np.array([1j, 0])]
print("the four qubit tangent vectors at |0> have rank", qd.realified_rank(vs), "(not 4)")

print("\n== Lie closure and its growth with the truncation ==")
basis = qd.lie_closure(np.array([-1j * SIGMA_X, -1j * SIGMA_Y]))
print("closure of {-i sigma_x, -i sigma_y} has dimension", len(basis), "(su(2))")
for n_env in (3, 6):
    fq = qd.field_quadrature(0.3, n_env).matrix
    gens = np.array([-1j * np.kron(s, fq) for s in (SIGMA_X, SIGMA_Y)])
    dim = len(qd.lie_closure(gens))
    print(f"closure of sigma_x/y (x) F at N={n_env}: dimension {dim}")
print("the dimension grows with the quadrature powers; an infinite environment")
print("never closes, which is exactly why the benchmark truncates it.")
