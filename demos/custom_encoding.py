"""Define a custom feature map with the phase expression mini-language.

Every encoding fixes phi1 = x1 and phi2 = x2 and varies the entangling
phase phi12(x1, x2), so an encoding is its phi12: any callable of
(x1, x2) works, and parse_phase_expression() compiles a small
arithmetic language (x1, x2, pi, sin, cos, exp, ln, abs, ^) into one.
This script builds an encoding from an expression string, screens it,
and cross-validates it on the XOR dataset, where a tailored entangling
phase does well.

Run:  python3 demos/custom_encoding.py
"""

import qkmap as qk


def main():
    phi12 = qk.parse_phase_expression("pi * x1 * x2")

    x = (0.3, -0.7)
    print(f"phi12 at {x}: {phi12(*x)}")
    print(f"self-kernel K(x, x) = {qk.gram(phi12, [x, x]).values[0, 1]:.12f}")
    print()

    dataset = qk.generate("xor", 100, seed=7)
    report = qk.minimum_accuracy(dataset, phi12)
    print(f"screening on XOR: minimum accuracy {report.minimum_accuracy:.2f} "
          f"on axis {report.best_axis_label}")

    cv = qk.cross_validate(dataset, qk.gram(phi12, dataset.points),
                           folds=5, C=100.0, seed=0)
    print(f"5-fold CV: mean train {cv.mean_train:.3f}, "
          f"mean test {cv.mean_test:.3f}")
    print()

    bad = "import('os')"
    try:
        qk.parse_phase_expression(bad)
    except ValueError as exc:
        print(f"rejected {bad!r}: {exc}")


if __name__ == "__main__":
    main()
