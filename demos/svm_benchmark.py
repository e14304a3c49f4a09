"""Cross-validated kernel SVM benchmark over datasets and encodings.

Trains a soft-margin SVM on the exact quantum kernel of every built-in
encoding against every benchmark dataset, using 5-fold cross-validation,
and prints mean train/test accuracy.  The screening lower bound from
demos/screening_walkthrough.py predicts the strong and weak pairings
seen here without any training.

Run:  python3 demos/svm_benchmark.py [C]
"""

import sys

import qkmap as qk


def main():
    C = float(sys.argv[1]) if len(sys.argv) > 1 else 100.0
    print(f"5-fold cross-validation, exact kernel, C={C}")
    print()
    header = f"{'dataset':<8}" + "".join(f"{eid:>16}" for eid in qk.BUILTIN_IDS)
    print(header)
    print("-" * len(header))

    for kind in ("circle", "exp", "moon", "xor"):
        dataset = qk.generate(kind, 100, seed=7)
        cells = []
        for eid in qk.BUILTIN_IDS:
            full = qk.gram(qk.builtin(eid), dataset.points)
            report = qk.cross_validate(dataset, full, folds=5, C=C, seed=0)
            cells.append(f"{report.mean_train:.2f}/{report.mean_test:.2f}")
        print(f"{kind:<8}" + "".join(f"{c:>16}" for c in cells))

    print()
    print("cells are mean train/test accuracy over the 5 folds")


if __name__ == "__main__":
    main()
