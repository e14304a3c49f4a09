"""Feature-map analysis and screening toolkit for kernel-based quantum classifiers."""

from .encodings import (
    BUILTIN_IDS,
    EncodingError,
    builtin,
    eval_encoding,
    feature_states,
    parse_phase_expression,
)
from .pauli import (
    TWO_QUBIT_LABELS,
    coefficient_grids,
    coefficients,
    decompose,
    grid_to_csv,
    grid_to_pgm,
    pauli_index,
    pauli_label,
)
from .kernels import GramMatrix, combine, gram
from .svm import (
    CvReport,
    LabeledDataset,
    SvmModel,
    accuracy,
    cross_validate,
    decide,
    kkt_residuals,
    train,
)
from .screening import AxisAccuracyReport, axis_accuracy, minimum_accuracy, vc_dimension
from .datasets import from_csv, generate, to_csv

__version__ = "0.1.0"
