"""Every public name of the top-level ``qkmap`` namespace, pinned."""

import types

import qkmap

PUBLIC_NAMES = {
    # encodings
    "BUILTIN_IDS", "EncodingError", "builtin", "feature_states", "parse_phase_expression",
    # pauli
    "coefficient_grids", "coefficients", "grid_to_csv", "grid_to_pgm",
    "pauli_index", "pauli_label",
    # kernels
    "GramMatrix", "combine", "gram",
    # svm
    "CvReport", "LabeledDataset", "SvmModel", "accuracy", "cross_validate", "decide",
    "train",
    # screening
    "AxisAccuracyReport", "axis_accuracy", "minimum_accuracy",
    # datasets
    "from_csv", "generate", "to_csv",
}


def test_top_level_names_are_pinned():
    names = {name for name, value in vars(qkmap).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 27
    assert names == PUBLIC_NAMES
