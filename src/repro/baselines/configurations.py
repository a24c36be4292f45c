"""Configuration presets for the Morpheus ablations.

Figure 16 of the paper compares three configurations (purely enumerative
search, deduction with Spec 1, deduction with Spec 2); Figure 17 additionally
toggles partial evaluation.  These helpers build the corresponding
:class:`~repro.core.SynthesisConfig` objects so the benchmark harness and the
tests use exactly the same definitions.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.abstraction import SpecLevel
from ..core.synthesizer import SynthesisConfig


def _base(timeout: Optional[float]) -> Dict:
    return {"timeout": timeout}


def no_deduction_config(timeout: Optional[float] = 60.0) -> SynthesisConfig:
    """Purely enumerative search (the "No deduction" column of Figure 16).

    The statistical cost model is still used to order hypotheses, exactly as
    in the paper's basic configuration.
    """
    return SynthesisConfig(deduction=False, **_base(timeout))


def spec1_config(timeout: Optional[float] = 60.0) -> SynthesisConfig:
    """Deduction with the coarse row/column specification (Table 2)."""
    return SynthesisConfig(spec_level=SpecLevel.SPEC1, **_base(timeout))


def spec2_config(timeout: Optional[float] = 60.0) -> SynthesisConfig:
    """Deduction with the precise specification (Table 3).  Full Morpheus."""
    return SynthesisConfig(spec_level=SpecLevel.SPEC2, **_base(timeout))


def spec1_no_partial_eval_config(timeout: Optional[float] = 60.0) -> SynthesisConfig:
    """Spec 1 deduction without partial evaluation (Figure 17 ablation)."""
    return SynthesisConfig(
        spec_level=SpecLevel.SPEC1, partial_evaluation=False, **_base(timeout)
    )


def spec2_no_partial_eval_config(timeout: Optional[float] = 60.0) -> SynthesisConfig:
    """Spec 2 deduction without partial evaluation (Figure 17 ablation)."""
    return SynthesisConfig(
        spec_level=SpecLevel.SPEC2, partial_evaluation=False, **_base(timeout)
    )


def full_morpheus_config(timeout: Optional[float] = 60.0) -> SynthesisConfig:
    """The default, full-strength configuration (Spec 2 + partial evaluation)."""
    return spec2_config(timeout)


def spec2_no_oe_config(timeout: Optional[float] = 60.0) -> SynthesisConfig:
    """Spec 2 deduction without observational-equivalence merging (``--no-oe``)."""
    return SynthesisConfig(spec_level=SpecLevel.SPEC2, oe=False, **_base(timeout))


def override_config(factory, **overrides):
    """A configuration factory applying field *overrides* to another factory."""
    from dataclasses import replace

    return lambda timeout: replace(factory(timeout), **overrides)


def _with_overrides(configurations: Dict, **overrides) -> Dict:
    """Rewrite a label->factory map applying the same field overrides.

    Used by the benchmark CLI's ablation flags: the labels stay unchanged so
    tables from both modes line up column-for-column.
    """
    return {
        label: override_config(factory, **overrides)
        for label, factory in configurations.items()
    }


def without_oe(configurations: Dict) -> Dict:
    """Disable observational-equivalence merging in every configuration."""
    return _with_overrides(configurations, oe=False)


def with_top_k(configurations: Dict, k: int) -> Dict:
    """Collect up to *k* distinct solutions per task."""
    return _with_overrides(configurations, top_k=k)


#: The three configurations of Figure 16, keyed by the column label.
FIGURE16_CONFIGS = {
    "no-deduction": no_deduction_config,
    "spec1": spec1_config,
    "spec2": spec2_config,
}

#: The five configurations of Figure 17, keyed by the curve label.
ALL_FIGURE17_CONFIGS = {
    "no-deduction": no_deduction_config,
    "spec1-no-pe": spec1_no_partial_eval_config,
    "spec2-no-pe": spec2_no_partial_eval_config,
    "spec1-pe": spec1_config,
    "spec2-pe": spec2_config,
}
