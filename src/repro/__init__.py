"""Morpheus reproduction: component-based synthesis of table transformations.

This package reproduces *"Component-based Synthesis of Table Consolidation
and Transformation Tasks from Examples"* (PLDI 2017) as a pure-Python
library.  The top-level namespace re-exports the pieces a user typically
needs: the table substrate, the synthesizer, and the component library.

Quickstart::

    from repro import SynthesisRequest, Table, solve

    inputs = [Table(["a", "b"], [[1, 2], [3, 4], [5, 6]])]
    output = Table(["a", "b"], [[3, 4], [5, 6]])
    result = solve(SynthesisRequest.from_tables(inputs, output))
    print(result.program)

:mod:`repro.api` is the sanctioned entry point -- it adds interactive
sessions (:func:`repro.api.create_session`) with resumable search, and its
dataclasses are the wire format of the HTTP service (:mod:`repro.service`).
"""

from .core import (
    Example,
    Morpheus,
    SpecLevel,
    SynthesisConfig,
    SynthesisResult,
    sql_library,
    standard_library,
    synthesize,
)
from .dataframe import Table, tables_equivalent, tables_match_for_synthesis

__version__ = "1.1.0"

#: Facade APIs re-exported lazily from :mod:`repro.api` (the facade imports
#: the synthesizer and the engine context, so an eager import here would be
#: circular).
_API_EXPORTS = frozenset(
    {
        "CandidateProgram",
        "SessionState",
        "SynthesisRequest",
        "SynthesisSession",
        "create_session",
        "solve",
    }
)

__all__ = [
    "CandidateProgram",
    "Example",
    "Morpheus",
    "SessionState",
    "SpecLevel",
    "SynthesisConfig",
    "SynthesisRequest",
    "SynthesisResult",
    "SynthesisSession",
    "Table",
    "__version__",
    "create_session",
    "solve",
    "sql_library",
    "standard_library",
    "synthesize",
    "tables_equivalent",
    "tables_match_for_synthesis",
]


def __getattr__(name):
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
