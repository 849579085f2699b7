"""Regenerate reference.json, the stored values the benchmark checks against.

    python3 perfbench/make_reference.py

Density anchors are approx_density values at fixed endpoints (compared to a
relative 1e-9).  MC references are 400k-path bridge estimates at each
candidate endpoint of the mc_estimators workload; a run's estimates must
fall within a stated multiple of the combined s.e. and discretization bias.
Rerun this only when a change is meant to move these values, and say so
where the change is recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import worker as w

REF_PATHS = 400_000
REF_SEED = 20160711


def main() -> None:
    anchors = {}
    for H in w.DENSITY_HS:
        model = w.make_model(H)
        for endpoint in w.DENSITY_ANCHORS:
            d = w.mb.approx_density(model, endpoint, n=w.N_DENSITY)
            anchors[f"{H}:{endpoint[0]},{endpoint[1]}"] = {
                "phi": d.phi, "p_hat": d.p_hat, "p_hat_full": d.p_hat_full}
    mc = {}
    model = w.make_model(w.MC_H)
    for point in w.MC_CANDIDATES:
        est = w.mb.bridge_mc_density(model, point,
                                     w.mb.SimConfig(REF_PATHS, w.BRIDGE_STEPS, REF_SEED))
        mc[f"{point[0]},{point[1]}"] = {"value": est.value, "std_err": est.std_err,
                                        "bias": est.discretization_bias,
                                        "n_paths": REF_PATHS, "n_steps": w.BRIDGE_STEPS}
        print(point, mc[f"{point[0]},{point[1]}"], flush=True)
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps({"density_anchors": anchors, "mc": mc}, indent=1) + "\n")


if __name__ == "__main__":
    main()
