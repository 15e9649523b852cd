"""Recompute the reference values that the besov_equiv workload checks against.

Each pool polynomial (the Gaussian polynomials of the besov-equivalence
section, seeds 3000+i on the plain 2-d cross Q(2^12)) gets its block-form
and band-form norm at p in {1.5, 2, 4}, theta = 2, computed at rel_tol=1e-6
with an axis cap large enough that p = 4 is evaluated on its exact grid.

    PYTHONPATH=src python3 bench/make_references.py

Writes bench/besov_refs.json.  Peaks near 1 GiB of memory.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stepcross as sc  # noqa: E402
from workloads import BESOV_OMEGA, BESOV_N, BESOV_PS, BESOV_THETA, POOL_SEEDS  # noqa: E402

REF_QUAD = dict(rel_tol=1e-6, max_grid=16384)


def main() -> int:
    quad = sc.QuadratureSpec(**REF_QUAD)
    spectrum = sc.q_set(BESOV_OMEGA, BESOV_N)
    refs = {}
    for seed in POOL_SEEDS:
        f = sc.random_in_spectrum(spectrum, seed=seed, law="gaussian")
        row = {}
        for p in BESOV_PS:
            bp = sc.BesovParams(p, BESOV_THETA)
            row[repr(p)] = [sc.besov_norm_blocks(f, BESOV_OMEGA, bp, quad),
                            sc.besov_norm_vp(f, BESOV_OMEGA, bp, quad)]
        refs[str(seed)] = row
        print(seed, row, flush=True)
    out = {"quad": REF_QUAD, "n_spec": BESOV_N, "theta": BESOV_THETA,
           "omega": BESOV_OMEGA.to_json(), "refs": refs}
    (HERE / "besov_refs.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
