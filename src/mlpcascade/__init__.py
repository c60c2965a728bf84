"""mlpcascade: distill a graph-convolution teacher into an anytime cascade
of MLP students.

Training builds K students in sequence, each warm-started from the previous
one and fed its hidden representations, optimizing a growing blend of
supervised cross entropy and teacher KL divergence plus an adaptive mixup
loss. Inference runs students until a confidence, count, or time budget rule
fires and returns a confidence-weighted ensemble of the executed students.
"""

from .cascade import (
    Cascade,
    CascadeConfig,
    MixupConfig,
    MixupState,
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
    update_ema,
    update_lambda,
)
from .graphio import (
    Graph,
    Splits,
    load_dataset,
    make_splits,
    normalize_adjacency,
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
