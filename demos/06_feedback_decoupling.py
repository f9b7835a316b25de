"""Feedback synthesis and the decoupling endpoint.

The synthesis recipe at a state xi: v_1 = K_I(xi), the rest of the
commuting frame from operators commuting with the interaction generator,
d expressing the frame over the control fields, beta = J d, and alpha
cancelling the drift's frame components.  The closed-loop controls are
then exactly the commuting frame, so the span{K_I} direction is never
excited and y(t) becomes independent of the coupling.

Two systems make the point from both sides:

  * a 12-dimensional system whose controls all commute with the
    collective-dephasing generator: synthesis succeeds at every step and
    the paired (g vs 0) traces coincide;
  * the restructured benchmark: its 24 control fields span only 12 real
    directions pointwise and the interaction field is not among them, so
    frame construction reports the deficiency instead of inventing an
    answer.
"""

import numpy as np

import qdecouple as qd

rng = np.random.default_rng(1)

print("== commutant-control system (12 complex dimensions) ==")
toy = qd.build_commutant_toy()
xi = qd.random_state(toy.space, rng)
result = qd.build_frame(toy, xi)
print(f"frame: ok={result.ok}, rank {result.report['frame_rank']}/{result.report['required_rank']}")
law = qd.synthesize(toy, result.frame)
print(f"d condition number {law.details['cond_d']:.2f}; beta singular (literal J): {law.beta_singular}")
print(f"alpha = {np.round(law.alpha, 4)}")
reg = qd.synthesize(toy, result.frame, mode="regularized")
print(f"regularized mode: beta singular: {reg.beta_singular}")

sched = qd.PulseSchedule(
    [(1.0, np.array([0.0, 1.0, 0.4, 0.0, 0.2])), (1.0, np.array([0.0, -0.5, 0.2, 0.3, 0.0]))]
)
xi0 = qd.random_state(toy.space, rng)
for mode in ("oracle_cancel", "literal"):
    tg, t0, dev = qd.decoupling_pair(toy, sched, xi0, dt=0.01, mode=mode)
    print(f"paired run, {mode:<13}: max |y_g - y_0| = {dev:.2e}")
open_g = qd.propagate(toy, sched, xi0, dt_max=0.01)
open_0 = qd.propagate(toy, sched, xi0, dt_max=0.01, include_interaction=False)
print(f"(for contrast, open loop with the same inputs: "
      f"{np.abs(open_g.y_values - open_0.y_values).max():.2e} -- this system is "
      f"open-loop decoupled by construction; the closed loop must preserve that)")

print("\n== restructured benchmark: the honest failure ==")
restr = qd.build_restructured(qd.ScenarioParams())
xi = qd.random_state(restr.space, rng)
res = qd.build_frame(restr, xi)
print(f"frame ok: {res.ok}")
print(f"report: required {res.report['required_rank']}, control-field rank "
      f"{res.report['control_field_rank']}, K_I in control span: "
      f"{res.report['interaction_in_control_span']}, frame rank {res.report['frame_rank']}")
print("the paper's 24-independent-fields premise does not survive contact with")
print("the truncated environment (quadrature powers collapse at N=3); the rank")
print("report, exit code 4 in the CLI, records exactly how far synthesis got.")
