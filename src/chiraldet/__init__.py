"""Stereochemistry-aware molecular representations built on determinant
kernels over chirality matrices, with distance-biased cross-attention and
a trainable classifier. All numerics are hand-rolled float64 numpy,
including every reverse-mode gradient."""

from .geometry import (
    ChiralUnit,
    Configuration,
    Molecule,
    UnitKind,
    assign_configuration,
    mirror,
    order_substituents,
    reference_point,
    transform,
    unit_products,
)
from .data import (
    FEATURE_WIDTH,
    SyntheticSpec,
    featurize,
    gen_axial,
    gen_axial_torsion,
    gen_rs,
    parse,
    read_manifest,
    toy_axial_molecule,
    write,
    write_dataset,
)
from .encoder import (
    BatchMask,
    EncoderParams,
    KernelBank,
    MoleculeBatch,
    RankStrategy,
    prepare_batch,
    regularization_loss,
    retract_orthonormal,
)
from .attention import (
    DistanceBiasParams,
    LayerParams,
    pool,
)
from .model import (
    AdamState,
    ChiralModel,
    ModelConfig,
    TrainConfig,
    backward_batch,
    embed,
    evaluate,
    forward,
    forward_batch,
    init_model,
    load_checkpoint,
    mirror_consistency,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
