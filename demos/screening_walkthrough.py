"""Screen encodings against datasets before training anything.

The minimum accuracy of an encoding on a labeled dataset is the best
training accuracy reachable by thresholding a single Pauli coefficient.
It is a cheap lower bound on what a kernel classifier built from that
encoding can do, so it works as a fast compatibility screen: if even the
best single axis separates the data well, the full classifier will too.

This script generates the four benchmark datasets and screens all five
built-in encodings against each, printing the minimum accuracy and the
best axis.  Note how the Circle dataset is almost linearly readable from
the ZZ coefficient under every encoding, while XOR is much harder.

Run:  python3 demos/screening_walkthrough.py
"""

import qkmap as qk


def main():
    # the feature space is the 16 real Pauli coefficients of rho, and
    # hyperplanes in R^d have VC dimension d + 1
    print(f"single-axis classifier family VC dimension (2 qubits): "
          f"{4 ** 2 + 1}")
    print()
    header = f"{'dataset':<8}" + "".join(f"{eid:>14}" for eid in qk.BUILTIN_IDS)
    print(header)
    print("-" * len(header))

    for kind in ("circle", "exp", "moon", "xor"):
        dataset = qk.generate(kind, 100, seed=7)
        cells = []
        for eid in qk.BUILTIN_IDS:
            report = qk.minimum_accuracy(dataset, qk.builtin(eid))
            cells.append(f"{report.minimum_accuracy:.2f} @{report.best_axis_label}")
        print(f"{kind:<8}" + "".join(f"{c:>14}" for c in cells))

    print()
    print("detail: per-axis accuracies for ef1 on the Circle dataset")
    dataset = qk.generate("circle", 100, seed=7)
    report = qk.minimum_accuracy(dataset, qk.builtin("ef1"))
    for index, (acc, threshold, orientation) in enumerate(report.axis_accuracies):
        marker = "  <-- best" if index == report.best_axis else ""
        print(f"  {qk.pauli_label(index)}: R={acc:.2f} "
              f"threshold={threshold:+.4f} orientation={orientation}{marker}")


if __name__ == "__main__":
    main()
