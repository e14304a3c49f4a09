"""Compare the three routes to the same quantum kernel value.

The kernel K(x, z) = |<phi(x)|phi(z)>|^2 can be computed three ways:

  exact  -- overlap of the two simulated feature states
  pauli  -- 4 * dot product of the two Pauli coefficient vectors
  shots  -- simulated inversion test: prepare U(z)|00>, undo U(x),
            count how often "00" comes back

The first two must agree to machine precision (they are the same quantity
through different algebra).  The third is a finite-sample estimate whose
error shrinks like 1/sqrt(shots); this script shows both facts.

Run:  python3 demos/kernel_estimation.py
"""

import numpy as np

import qkmap as qk


def main():
    rng = np.random.default_rng(42)
    spec = qk.builtin("ef2")
    pairs = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(50)]

    # one kernel value is the off-diagonal entry of a two-point Gram
    exact = [qk.gram(spec, [x, z]).values[0, 1] for x, z in pairs]
    pauli = [qk.gram(spec, [x, z], method="pauli").values[0, 1] for x, z in pairs]

    print("route agreement (exact vs coefficient dot product):")
    worst = max(abs(e - p) for e, p in zip(exact, pauli))
    print(f"  max |exact - pauli| over 50 random pairs: {worst:.2e}")
    print()

    print("shot-based estimation error vs number of shots:")
    for shots in (100, 400, 1600, 6400, 25600):
        errs = [qk.gram(spec, [x, z], method="shots", shots=shots, seed=i).values[0, 1] - k
                for i, ((x, z), k) in enumerate(zip(pairs, exact))]
        rms = float(np.sqrt(np.mean(np.square(errs))))
        print(f"  {shots:>6} shots: rms error {rms:.4f} "
              f"(expect ~1/sqrt(shots) = {1 / np.sqrt(shots):.4f} scale)")
    print()

    print("full Gram matrix on 8 points, both routes:")
    points = rng.uniform(-1, 1, (8, 2))
    g_exact = qk.gram(spec, points)
    g_shots = qk.gram(spec, points, method="shots", shots=10_000, seed=0)
    diff = np.max(np.abs(g_exact.values - g_shots.values))
    print(f"  max entry difference at 10k shots: {diff:.4f}")
    print(f"  exact minimum eigenvalue: {np.linalg.eigvalsh(g_exact.values)[0]:+.2e}")
    print(f"  shots minimum eigenvalue: {np.linalg.eigvalsh(g_shots.values)[0]:+.2e} "
          f"(sampling noise can push this slightly negative)")


if __name__ == "__main__":
    main()
