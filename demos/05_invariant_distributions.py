"""Invariant distributions two ways, and their duality.

At a random state of each benchmark the maximal invariant distribution
inside ker(dy) is computed twice: through the codistribution Omega of the
output differentials' Lie derivatives, realized and annihilated, and
through the iterative removal route.  Omega is read off C~: the Lie
derivatives close C and -iC under ad of the drift and the controls, which
is C~ + iC~, so no second closure runs, and on bait the certified C~ =
sl(n, C) holds no rows.  The two agree to machine
precision and satisfy dim Delta* + rank Omega* = 2n.  Membership of the
interaction field in Delta* is exactly the open-loop decouplability
question: it fails for every benchmark, matching the table's NO column.

The closed-loop variant intersects with the annihilator of the control
span before each Lie step; on the restructured system the intersection
is empty at the first round, so the algorithm stops immediately with
Delta* = ker(dy).
"""

import numpy as np

import qdecouple as qd

rng = np.random.default_rng(0)
params = qd.ScenarioParams()

for name in ("single_qubit", "two_qubit", "restructured", "bait"):
    sys_ = qd.build_scenario(name, params)
    n = sys_.space.total_dim
    xi = qd.random_state(sys_.space, rng)
    omega = qd.omega_closure_open(sys_, xi)
    delta = omega.delta_star()
    brute = qd.bruteforce_invariant_distribution(sys_, xi)
    k_i = qd.eval_field(sys_.interaction, xi)
    in_ker = qd.kernel_dy(xi, sys_.output_op).residual(k_i) < 1e-9
    in_delta = delta.residual(k_i) < 1e-9
    mutual = max(
        [brute.residual(v) for v in delta.vectors]
        + [delta.residual(v) for v in brute.vectors]
    )
    print(f"-- {name} (2n = {2*n})")
    print(f"   rank Omega* = {omega.rank}, dim Delta* = {delta.dim} "
          f"(duality: {omega.rank + delta.dim == 2*n})")
    print(f"   removal route dims {brute.details['iteration_dims']} -> {brute.dim}, "
          f"mutual containment residual {mutual:.1e}")
    print(f"   K_I in ker(dy): {in_ker};  K_I in Delta*: {in_delta} "
          f"(open-loop decouplable iff True)")

print("\n-- closed-loop closure on the restructured system")
sys_ = qd.build_scenario("restructured", params)
xi = qd.random_state(sys_.space, rng)
omega_c = qd.omega_closure_closed(sys_, xi)
ker = qd.kernel_dy(xi, sys_.output_op)
delta_c = omega_c.delta_star()
print(f"   rounds: {omega_c.details['rounds']}, dim Delta* = {delta_c.dim}, "
      f"dim ker(dy) = {ker.dim} (terminates after the first iteration)")
