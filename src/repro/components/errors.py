"""Errors raised while evaluating table-transformation components.

During synthesis a candidate program frequently applies a component to a
table it does not fit (e.g. ``spread`` over duplicate identifiers, ``separate``
over a column with nothing to split on).  Such candidates are simply pruned,
so all executor errors derive from a single base class the synthesizer can
catch in one place.
"""

from typing import Callable, Iterable, List

from ..dataframe.errors import DataFrameError


class ComponentError(Exception):
    """Base class for every error raised by the component executor."""


class InvalidArgumentError(ComponentError):
    """A component received arguments that are structurally invalid."""


class EvaluationError(ComponentError):
    """A component could not be applied to the given tables."""


#: Exceptions that indicate a candidate program is simply not applicable to
#: its inputs (as opposed to a bug in the executor).  The synthesizer treats
#: any of these as "prune this candidate".
PRUNABLE_ERRORS = (ComponentError, DataFrameError, ZeroDivisionError)


def batch_outcomes(run: Callable[..., object], calls: Iterable[tuple]) -> List[object]:
    """``run(*call)`` for each call: its result, or the prunable error it raised.

    The error contract of every batched executor: errors are returned, not
    raised, so one failing sibling does not mask the rest, and each is
    stripped of its traceback -- the traceback references this frame, whose
    ``results`` holds the error, a cycle only the cyclic collector frees.
    """
    results: List[object] = []
    for call in calls:
        try:
            results.append(run(*call))
        except PRUNABLE_ERRORS as error:
            results.append(error.with_traceback(None))
    return results
