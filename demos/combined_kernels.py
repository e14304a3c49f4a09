"""Combine kernels from two encodings into one classifier.

A weighted sum of valid kernels is again a valid kernel.  When two
encodings capture complementary structure, their combination can beat
either one alone.  This script demonstrates the effect on the Moon
dataset, where mixing an entangling encoding with a separable one lifts
the cross-validated training accuracy above both ingredients.

It also shows training a single model on the combined Gram matrix,
saving it to a plain-text file, and loading it back.

Run:  python3 demos/combined_kernels.py
"""

from pathlib import Path

import qkmap as qk


def cv_train_accuracy(dataset, encoding_ids, C):
    grams = [qk.gram(qk.builtin(eid), dataset.points) for eid in encoding_ids]
    full = grams[0] if len(grams) == 1 else qk.combine(grams, (1.0,) * len(grams))
    return qk.cross_validate(dataset, full, folds=5, C=C, seed=0).mean_train


def main():
    dataset = qk.generate("moon", 100, seed=7)
    C = 100.0

    for ids in (["ef3"], ["ef1"], ["ef3", "ef1"]):
        acc = cv_train_accuracy(dataset, ids, C)
        name = " + ".join(ids)
        print(f"  {name:<12} mean train accuracy {acc:.3f}")
    print()

    grams = [qk.gram(qk.builtin(eid), dataset.points) for eid in ("ef3", "ef1")]
    combined = qk.combine(grams, (1.0, 1.0))  # m weights in [0, m], summing to m
    model = qk.train(combined, dataset.labels, C=C, points=dataset.points)
    acc = qk.accuracy(model, combined.values, dataset.labels)
    print(f"single model on the full combined Gram: training accuracy {acc:.3f}")

    path = Path("combined_model.txt")
    path.write_text(model.to_text())
    loaded = qk.SvmModel.from_text(path.read_text())
    print(f"saved model to {path} and reloaded it "
          f"(bias {loaded.bias:+.4f}, "
          f"{int((loaded.alphas > 0).sum())} support vectors)")


if __name__ == "__main__":
    main()
