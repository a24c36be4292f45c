"""Baseline synthesizers used in the paper's evaluation (Section 9).

* :func:`no_deduction_config` / :func:`spec1_config` / ... -- configuration
  presets for the Morpheus ablations of Figure 16 and Figure 17.
* :class:`SqlSynthesizer` -- an enumerative SQL-query synthesizer in the
  spirit of SQLSynthesizer [Zhang & Sun 2013], used for Figure 18.
* :class:`Lambda2Synthesizer` -- a list-combinator synthesizer in the spirit
  of lambda2 [Feser et al. 2015], used for the qualitative comparison.
"""

from .configurations import (
    ALL_FIGURE17_CONFIGS,
    FIGURE16_CONFIGS,
    full_morpheus_config,
    no_deduction_config,
    spec1_config,
    spec1_no_partial_eval_config,
    override_config,
    spec2_config,
    spec2_no_oe_config,
    spec2_no_partial_eval_config,
    with_top_k,
    without_oe,
)
from .lambda2 import Lambda2Synthesizer
from .sql_synthesizer import SqlQuery, SqlSynthesizer

__all__ = [
    "ALL_FIGURE17_CONFIGS",
    "FIGURE16_CONFIGS",
    "Lambda2Synthesizer",
    "SqlQuery",
    "SqlSynthesizer",
    "full_morpheus_config",
    "no_deduction_config",
    "override_config",
    "spec1_config",
    "spec1_no_partial_eval_config",
    "spec2_config",
    "spec2_no_oe_config",
    "spec2_no_partial_eval_config",
    "with_top_k",
    "without_oe",
]
