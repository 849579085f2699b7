"""The modal-path density approximation, from exact cases to rough drifts.

p_hat = phi * exp(omega_1) approximates the joint density of (X_T, Y_T).
For drifts depending on time only, the variant with the full log-correction
is exact, which gives a sharp end-to-end test of the whole pipeline.  For
state-dependent drifts the approximation error vanishes as T -> 0 at a rate
set by the Hurst exponent and the drift class.
"""

import math

import numpy as np

from modalbridge import (Hurst, KdeEstimator, ModelSpec, SimConfig, approx_density,
                         estimate_density_at, exact_timeonly_density, parse_drift,
                         simulate_forward)

print("=== exact recovery for time-only drifts ===")
model = ModelSpec(Hurst(0.3), 0.5, 0.0, 0.0, 0.5,
                  parse_drift("sin(t)"), parse_drift("-0.4*cos(2*t)"))
for endpoint in ((0.3, -0.2), (0.0, 0.4), (-0.5, 0.1)):
    d = approx_density(model, endpoint, n=2048)
    exact = exact_timeonly_density(model, endpoint)
    print(f"endpoint {endpoint}: p_hat_full {d.p_hat_full:.8f}  "
          f"exact {exact:.8f}  rel {abs(d.p_hat_full/exact-1):.1e}")

print()
print("=== leading-order term for a general (rough) drift ===")
general = lambda T: ModelSpec(Hurst(0.4), 0.3, 0.0, 0.0, T,
                              parse_drift("0.5*sin(x)"), parse_drift("0.5*cos(y)"))
print("T        p_hat      p_MC (1e5 paths)   |ratio - 1|")
for i, T in enumerate((0.4, 0.2, 0.1)):
    m = general(T)
    sx, sy = math.sqrt(T), T ** 0.4
    endpoint = (sx, sy)
    d = approx_density(m, endpoint, n=512)
    ens = simulate_forward(m, SimConfig(n_paths=100_000, n_steps=128, seed=10 + i))
    est = estimate_density_at(ens, endpoint, KdeEstimator(0.08 * sx, 0.08 * sy))
    print(f"{T:4}   {d.p_hat:10.5f}   {est.value:10.5f} ± {est.std_err:.5f}"
          f"     {abs(est.value/d.p_hat-1):.4f}")
print("the deviation shrinks with T: that is the small-time asymptotic at work")

print()
print("=== the remainder exponent by drift class ===")
for h1, h2, H, gamma in (("sin(x)", "cos(y)", 0.6, 0.3),
                         ("t*x + 1", "x - y", 0.6, 0.3),
                         ("sin(x)", "cos(y)", 0.3, None),
                         ("sin(t)", "1", 0.6, None)):
    m = ModelSpec(Hurst(H), 0.2, 0.0, 0.0, 0.5, parse_drift(h1), parse_drift(h2),
                  holder_gamma=gamma)
    d = approx_density(m, (0.1, 0.1), n=256)
    alpha = "exact" if math.isinf(d.alpha) else f"{d.alpha:.2f}"
    print(f"h1={h1!r:12} h2={h2!r:10} H={H}: class {m.drift_class.value:9} "
          f"alpha = {alpha}")
