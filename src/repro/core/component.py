"""Component descriptors (Definition 2 of the paper).

A component is a triple ``(name, type signature, specification)``.  The
descriptor additionally carries the executable semantics (the tidyr/dplyr
re-implementation from :mod:`repro.components`) and an R renderer so that
synthesized programs can be printed the way the paper presents them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, Optional, Sequence, Tuple

from ..components.errors import batch_outcomes
from ..dataframe.table import Table
from ..smt.terms import Formula
from .abstraction import SpecLevel, TableVars
from .arguments import ValueArgument
from .propagation import TransferFunction
from .specs import SPECIFICATIONS, TRANSFERS, SpecFunction, spec_true
from .types import Type

#: Executor signature: (input tables, value arguments, fresh-name prefix) -> table.
Executor = Callable[[Sequence[Table], Sequence[ValueArgument], str], Table]

#: Renderer signature: (rendered table arguments, value arguments) -> R call text.
Renderer = Callable[[Sequence[str], Sequence[ValueArgument]], str]

#: Batched-executor signature: (input tables, list of argument lists, fresh
#: prefix) -> one entry per argument list, either the result table or the
#: prunable error the plain executor would raise for those arguments.
BatchExecutor = Callable[
    [Sequence[Table], Sequence[Sequence[ValueArgument]], str], Sequence[object]
]


@dataclass(frozen=True)
class ValueParam:
    """A first-order parameter of a table transformer."""

    name: str
    param_type: Type


@dataclass(frozen=True)
class Component:
    """A higher-order table transformer with executable semantics and a spec."""

    name: str
    table_arity: int
    value_params: Tuple[ValueParam, ...]
    executor: Executor
    renderer: Renderer = None
    description: str = ""
    spec: SpecFunction = field(default=None)
    #: The compiled (tier-1) interpretation of the spec: an interval transfer
    #: function over attribute boxes, or ``None`` when only the formula
    #: interpretation exists (the prescreen then treats the component as
    #: unconstrained, which is always sound).  Defaults to the registry twin
    #: of :attr:`spec`; custom components overriding ``spec`` without
    #: supplying a matching transfer keep ``None``.
    transfer: TransferFunction = field(default=None)
    #: Optional batched executor sharing per-table setup across sibling
    #: argument lists (e.g. ``filter`` scanning one table under many
    #: predicates).  ``None`` falls back to looping :attr:`executor`; either
    #: way :meth:`execute_batch` is observationally equivalent to calling
    #: :meth:`execute` once per argument list.
    batch_executor: BatchExecutor = field(default=None)

    def __post_init__(self):
        if self.spec is None:
            object.__setattr__(self, "spec", SPECIFICATIONS.get(self.name, spec_true))
            if self.transfer is None:
                object.__setattr__(self, "transfer", TRANSFERS.get(self.name))

    @property
    def arity(self) -> int:
        """Total number of arguments (tables + first-order)."""
        return self.table_arity + len(self.value_params)

    def specification(
        self, output: TableVars, inputs: Sequence[TableVars], level: SpecLevel
    ) -> Formula:
        """The first-order specification relating output attributes to inputs."""
        return self.spec(output, inputs, level)

    def execute(
        self,
        tables: Sequence[Table],
        arguments: Sequence[ValueArgument],
        fresh_prefix: str,
    ) -> Table:
        """Run the component on concrete tables and argument values."""
        return self.executor(tables, arguments, fresh_prefix)

    def execute_batch(
        self,
        tables: Sequence[Table],
        argument_lists: Sequence[Sequence[ValueArgument]],
        fresh_prefix: str,
    ) -> Sequence[object]:
        """Run the component once per argument list over shared input tables.

        Returns one entry per argument list: the result table, or the
        prunable error :meth:`execute` raises for those arguments (errors are
        returned, not raised, so one failing sibling does not mask the rest).
        """
        if self.batch_executor is not None:
            return self.batch_executor(tables, argument_lists, fresh_prefix)
        return batch_outcomes(
            self.executor, [(tables, arguments, fresh_prefix) for arguments in argument_lists]
        )

    def render_r(self, table_args: Sequence[str], arguments: Sequence[ValueArgument]) -> str:
        """Render a call to this component as R source text."""
        if self.renderer is not None:
            return self.renderer(table_args, arguments)
        rendered = list(table_args) + [argument.render_r() for argument in arguments]
        return f"{self.name}({', '.join(rendered)})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Component {self.name}/{self.arity}>"


def _function_identity(function) -> object:
    """``(module, qualified name)`` of a component function, ``None`` if absent.

    Both are plain strings, so the identity is the same in every process
    whatever its hash seed.
    """
    if function is None:
        return None
    return (
        getattr(function, "__module__", None),
        getattr(function, "__qualname__", type(function).__qualname__),
    )


@dataclass(frozen=True)
class ComponentLibrary:
    """The component set :math:`\\Lambda = \\Lambda_T \\cup \\Lambda_v` of a synthesis problem."""

    table_transformers: Tuple[Component, ...]
    value_transformer_names: Tuple[str, ...] = ()
    #: :meth:`version_hash`, computed on first use (the library is immutable).
    _version_hash: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def by_name(self, name: str) -> Component:
        """Look up a table transformer by name."""
        for component in self.table_transformers:
            if component.name == name:
                return component
        raise KeyError(f"unknown component {name!r}")

    def names(self) -> Tuple[str, ...]:
        """Names of all table transformers, in registration order."""
        return tuple(component.name for component in self.table_transformers)

    def restricted_to(self, names: Sequence[str]) -> "ComponentLibrary":
        """A library containing only the named table transformers."""
        return ComponentLibrary(
            tuple(component for component in self.table_transformers if component.name in set(names)),
            self.value_transformer_names,
        )

    def version_hash(self) -> bytes:
        """A content hash of the library's components.

        Covers every table transformer's name, arity and parameter signature,
        the identity (module and qualified name) of its executor, spec and
        transfer, plus the value-transformer names -- what determines what a
        cached execution, specification or verdict fact *means*.  The
        warm-start knowledge base (:mod:`repro.engine.kb`) mixes this hash
        into every key, so facts computed under a different library version
        are never found rather than silently replayed.  The hash sees
        functions by name only: editing a built-in's body needs a
        :data:`repro.engine.kb.SCHEMA_VERSION` bump.
        """
        if self._version_hash is not None:
            return self._version_hash
        hasher = blake2b(digest_size=16)
        for component in self.table_transformers:
            hasher.update(component.name.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(str(component.table_arity).encode("ascii"))
            for param in component.value_params:
                hasher.update(b"\x01")
                hasher.update(param.name.encode("utf-8"))
                hasher.update(b"\x00")
                hasher.update(str(param.param_type.value).encode("utf-8"))
            hasher.update(b"\x02")
            for function in (component.executor, component.spec, component.transfer):
                hasher.update(repr(_function_identity(function)).encode("utf-8"))
                hasher.update(b"\x00")
        for name in self.value_transformer_names:
            hasher.update(b"\x03")
            hasher.update(name.encode("utf-8"))
        object.__setattr__(self, "_version_hash", hasher.digest())
        return self._version_hash

    def __iter__(self):
        return iter(self.table_transformers)

    def __len__(self) -> int:
        return len(self.table_transformers)
