"""mlpcascade: distill a graph-convolution teacher into an anytime cascade
of MLP students.

Training builds K students in sequence, each warm-started from the previous
one and fed its hidden representations, optimizing a growing blend of
supervised cross entropy and teacher KL divergence plus an adaptive mixup
loss. Inference runs students until a confidence, count, or time budget rule
fires and returns a confidence-weighted ensemble of the executed students.

BLAS runs single-threaded unless the environment says otherwise, so that
same-seed runs write the same bytes: the thread caps are set here, before
any submodule first loads numpy, and a variable already set is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cascade import (
    Cascade,
    CascadeConfig,
    MixupConfig,
    DistillConfig,
    load_cascade,
    mixup_examples,
    distill_loss,
    mixup_loss,
    sample_mixup_pairs,
    save_cascade,
    student_forward,
    train_cascade,
    train_student,
)
from .graphio import (
    Graph,
    NodeTables,
    Splits,
    load_dataset,
    load_nodes,
    normalize_adjacency,
    normalized_adjacency,
    save_dataset,
    synth_sbm,
)
from .inference import (
    InferencePolicy,
    InferenceResult,
    accuracy,
    confidence,
    ensemble,
    run_anytime,
)
from .numkit import (
    GradPair,
    finite_diff_check,
    kl_divergence,
    masked_cross_entropy,
    softmax_rows,
    spmm,
)
from .optim import AdamW, TrainingDivergedError
from .params import LayerStack
from .teacher import (
    TeacherArtifact,
    TeacherConfig,
    export_soft_labels,
    gcn_forward,
    import_soft_labels,
    load_teacher,
    save_teacher,
    train_teacher,
)

__version__ = "0.1.0"
