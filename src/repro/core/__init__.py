"""The Morpheus synthesis engine (the paper's primary contribution).

Public entry points:

* :class:`repro.core.SearchKernel` -- the anytime search of Algorithm 1 over
  one input-output :class:`repro.core.Example`.  Run a task through
  :func:`repro.api.create_session` / :func:`repro.api.solve`, which build,
  drive and finish the kernel.
* :class:`repro.core.SynthesisConfig` -- ablation knobs (deduction, Spec 1 vs
  Spec 2, partial evaluation, cost model).
* :func:`repro.core.standard_library` -- the tidyr/dplyr component set.
"""

from .abstraction import ExampleBaseline, SpecLevel, TableVars, abstract_table
from .arguments import (
    Aggregation,
    ColumnList,
    ColumnRef,
    Constant,
    MutationExpr,
    Predicate,
    ValueArgument,
)
from .component import Component, ComponentLibrary, ValueParam
from .cost import CostModel, NGramModel, UniformCostModel, default_ngram_model
from .deduction import DeductionEngine
from .frontier import Frontier, SearchKernel
from .hypothesis import (
    Apply,
    Hole,
    Hypothesis,
    component_sequence,
    evaluate,
    hypothesis_size,
    initial_hypothesis,
    is_complete,
    is_sketch,
    partial_evaluate,
    refine,
    render_program,
    sketches,
)
from .inhabitation import enumerate_arguments
from .library import sql_library, standard_library
from .oe import OEStore
from .propagation import ground_check, prescreen_infeasible
from .specs import SPECIFICATIONS, TRANSFERS
from .synthesizer import (
    Example,
    SynthesisConfig,
    SynthesisResult,
    SynthesisStats,
)
from .types import Type

__all__ = [
    "Aggregation",
    "Apply",
    "ColumnList",
    "ColumnRef",
    "Component",
    "ComponentLibrary",
    "Constant",
    "CostModel",
    "DeductionEngine",
    "Example",
    "ExampleBaseline",
    "Frontier",
    "Hole",
    "Hypothesis",
    "MutationExpr",
    "NGramModel",
    "OEStore",
    "Predicate",
    "SearchKernel",
    "SPECIFICATIONS",
    "SpecLevel",
    "TRANSFERS",
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesisStats",
    "TableVars",
    "Type",
    "UniformCostModel",
    "ValueArgument",
    "ValueParam",
    "abstract_table",
    "component_sequence",
    "default_ngram_model",
    "enumerate_arguments",
    "evaluate",
    "ground_check",
    "hypothesis_size",
    "initial_hypothesis",
    "is_complete",
    "is_sketch",
    "partial_evaluate",
    "prescreen_infeasible",
    "refine",
    "render_program",
    "sketches",
    "sql_library",
    "standard_library",
    "Type",
]
