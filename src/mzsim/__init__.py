"""State-vector simulation of Mach-Zehnder which-way and quantum-eraser
experiments: exact branch enumeration, post-selected statistics, seeded
Monte Carlo sampling, and a small experiment description language."""

from .hilbert import (
    LinearMap,
    SpaceSpec,
    StateVector,
    SubsystemSpec,
    apply,
    embed,
    inner,
    projector,
    space_of,
)
from .components import (
    EraserKrausPair,
    beam_splitter,
    eraser_kraus,
    mirror_pair,
    phase_shifter,
    which_way_entangler,
    which_way_readout,
)
from .experiment import (
    Branch,
    Detect,
    GeneralizedMeasure,
    OutcomeDistribution,
    Pipeline,
    PipelineFamily,
    ProjectiveMeasure,
    ShotHistogram,
    SweepResult,
    Unitary,
    conditional,
    delayed_choice_equivalence,
    marginal,
    matches,
    run_analytic,
    run_sampled,
    sweep,
    unitary_on,
)
from .dsl import ExperimentAst, ParseError, parse_text, pretty_print, sweep_template
from .dsl import compile as compile_experiment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
