"""Topology toolkit for 2D likelihood grids.

Persistence diagrams of threshold filtrations, exact diagram matching,
differentiable topological consistency and noise-removal losses,
topology-aware segmentation metrics, and a deterministic desk-scale
teacher-student simulator.

scipy is imported inside the functions that call it, never at module
level, so importing the package (or running ``topokit pd``) loads numpy
only. The assignment solver comes straight from scipy's compiled module
``scipy.optimize._lsap`` and the metrics' matching from
``scipy.sparse.csgraph._matching``, so no subcommand imports the
``scipy.optimize`` or ``scipy.sparse.csgraph`` packages. The bottleneck
matching is topokit's own Hopcroft-Karp and loads no scipy module.
"""

from .diagram import DEFAULT_PHI, DecomposedDiagram, decompose
from .grid import (
    SUBLEVEL,
    SUPERLEVEL,
    ComponentLabeling,
    GridFormatError,
    as_likelihood,
    as_mask,
    label_components,
    load_grid,
    load_mask_pgm,
    save_grid_csv,
    save_grid_pgm,
    save_mask_pgm,
    threshold,
)
from .losses import (
    NOISE_DIAGONAL,
    NOISE_SQUARED,
    TopoLossReport,
    cross_entropy_loss_and_gradient,
    dice_loss_and_gradient,
    finite_difference_check,
    supervised_loss_and_gradient,
    topo_loss_and_gradient,
)
from .matching import DIAGONAL, DiagramMatching, match_diagrams
from .metrics import MetricReport, betti_error, betti_matching_error, compute_metrics, variation_of_information
from .persistence import (
    PersistenceDiagram,
    compute_diagram,
    compute_diagrams,
    load_diagram_csv,
    save_diagram_csv,
)
from .trainer import (
    LabeledSupervision,
    StepRecord,
    TrainConfig,
    TrainTrace,
    ema_update,
    likelihood_to_logits,
    ramp_up_weight,
    run_simulation,
    write_trace_csv,
)

__all__ = [
    "DEFAULT_PHI", "DIAGONAL", "NOISE_DIAGONAL", "NOISE_SQUARED", "SUBLEVEL", "SUPERLEVEL",
    "ComponentLabeling", "DecomposedDiagram", "DiagramMatching", "GridFormatError",
    "LabeledSupervision", "MetricReport", "PersistenceDiagram",
    "StepRecord", "TopoLossReport", "TrainConfig", "TrainTrace",
    "as_likelihood", "as_mask", "betti_error", "betti_matching_error",
    "compute_diagram", "compute_diagrams", "compute_metrics", "cross_entropy_loss_and_gradient",
    "decompose", "dice_loss_and_gradient",
    "ema_update", "finite_difference_check", "label_components", "likelihood_to_logits",
    "load_diagram_csv", "load_grid", "load_mask_pgm", "match_diagrams", "ramp_up_weight",
    "run_simulation", "save_diagram_csv", "save_grid_csv", "save_grid_pgm", "save_mask_pgm",
    "supervised_loss_and_gradient", "threshold", "topo_loss_and_gradient",
    "variation_of_information", "write_trace_csv",
]
