"""despec: diffuse/specular separation for single linear-light images.

The illumination color of a scene pins one direction in RGB space;
material colors project into the subspace orthogonal to it, where they
are unaffected by highlights.  Clustering there finds the materials, a
histogram peak per cluster finds each material's highlight-free pixels,
and those fix the per-pixel split of every cluster into body and surface
reflection.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    EPS_BLACK,
    EPS_GRAY,
    WHITE,
    IlluminationBasis,
    white_balance,
)
from .clustering import (  # noqa: F401
    ClusterConfig,
    ClusterSet,
    FitDiagnostics,
    SpecularFreeField,
    adaptive_cluster,
    evaluate_fit,
    kmeans,
    specular_free_field,
)
from .recovery import (  # noqa: F401
    MaterialModel,
    SeparationResult,
    estimate_models,
    estimate_ratio,
    separate_image,
)
from .synth import (  # noqa: F401
    BUILTIN_SCENES,
    GroundTruth,
    SceneParams,
    SceneSpec,
    add_noise,
    build_scene,
    builtin_scene,
    render,
)
from .metrics import EvalReport, cluster_accuracy, psnr  # noqa: F401
from .pipeline import (  # noqa: F401
    PipelineConfig,
    PipelineDiagnostics,
    run,
)
from . import errors  # noqa: F401
