"""Generic component registry framework.

Every pluggable component family in the library -- attacks, defenses,
datasets, models -- is managed by one :class:`Registry` instance.  A
registry maps names (and aliases) to builder callables and carries a
one-line summary plus arbitrary metadata per component, so the same
object answers three questions:

- *construction*: ``ATTACKS.build("lmp", lambda_override=2.0)``;
- *discovery*: ``ATTACKS.names()`` and ``ATTACKS.describe()`` (rendered by
  ``python -m repro list``);
- *wiring*: ``ATTACKS.metadata("lmp")`` holds declarative extras such as
  the defense registry's ``config_defaults`` (which
  :class:`~repro.experiments.configs.ExperimentConfig` fields feed which
  constructor arguments), so generic code never special-cases names.

Third-party code extends the library without touching its source::

    from repro.defenses import DEFENSES
    from repro.defenses.base import Aggregator

    @DEFENSES.register("my_rule", summary="clip then average")
    class MyRule(Aggregator):
        def aggregate(self, uploads, context):
            ...

Once registered, ``my_rule`` is accepted everywhere a built-in name is:
``ExperimentConfig(defense="my_rule")``, the CLI, sweeps and presets.

Keyword arguments passed to :meth:`Registry.build` are validated against
the builder's signature *before* the call, so a typo fails with a
``TypeError`` naming the component and the offending key instead of a
stack trace from deep inside a constructor.  Builders that accept
``**kwargs`` opt out of introspection; registration may then supply
``valid_kwargs`` explicitly to keep eager validation.
"""

from __future__ import annotations

import copy
import inspect
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

__all__ = ["Registry", "RegistryEntry", "UnknownComponentError"]


class UnknownComponentError(KeyError):
    """Lookup of a name that is neither registered nor an alias."""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: builder plus descriptive metadata.

    ``valid_kwargs`` may be a tuple of keyword names or a zero-argument
    callable returning them (resolved at validation time, so the accepted
    set can come from a lazily-imported source of truth).
    """

    name: str
    builder: Callable
    aliases: tuple[str, ...] = ()
    summary: str = ""
    metadata: Mapping = field(default_factory=dict)
    valid_kwargs: tuple[str, ...] | Callable[[], Sequence[str]] | None = None

    def __post_init__(self) -> None:
        # Deep-copy then freeze the metadata so entries neither alias the
        # caller's dicts (two registrations sharing one nested mapping
        # would couple their metadata) nor expose them to mutation.
        object.__setattr__(
            self, "metadata", MappingProxyType(copy.deepcopy(dict(self.metadata)))
        )


def _keyword_parameters(builder: Callable) -> tuple[frozenset[str], bool]:
    """Names a builder accepts as keywords and whether it takes ``**kwargs``.

    Classes are introspected through ``__init__`` (skipping ``self``).
    Builders whose signature cannot be read (NumPy ufuncs, some builtins)
    are treated as accepting anything.
    """
    try:
        signature = inspect.signature(builder)
    except (TypeError, ValueError):
        return frozenset(), True
    names = set()
    has_var_keyword = False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            has_var_keyword = True
        elif parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.add(parameter.name)
    return frozenset(names), has_var_keyword


class Registry:
    """A named collection of component builders.

    Parameters
    ----------
    kind:
        Human-readable singular of what is registered (``"attack"``,
        ``"defense"`` ...); used in every error message and by
        :meth:`describe`.
    """

    def __init__(self, kind: str) -> None:
        if not kind:
            raise ValueError("kind must be a non-empty string")
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        builder: Callable | None = None,
        *,
        aliases: Sequence[str] = (),
        summary: str = "",
        metadata: Mapping | None = None,
        valid_kwargs: Sequence[str] | Callable[[], Sequence[str]] | None = None,
        replace: bool = False,
    ):
        """Register a component builder under ``name``.

        Usable as a decorator (``@ATTACKS.register("lmp", summary=...)``)
        or as a direct call (``ATTACKS.register("lmp", builder)``).  The
        decorated object is returned unchanged.

        Parameters
        ----------
        name:
            Canonical component name.
        builder:
            Class or callable constructing the component; omit when using
            the decorator form.
        aliases:
            Alternative names resolving to the same entry.
        summary:
            One-line description shown by :meth:`describe`.
        metadata:
            Arbitrary extra mapping (stored read-only).
        valid_kwargs:
            Explicit keyword names accepted by ``builder``; overrides
            signature introspection (needed for ``**kwargs`` forwarders
            that should still fail fast on typos).  A zero-argument
            callable is resolved at validation time, letting the accepted
            set track a lazily-imported source of truth (e.g. a config
            dataclass's fields).
        replace:
            Allow overwriting an existing entry with the same name
            (aliases of the replaced entry are dropped); keeps repeated
            registration idempotent for interactive use and re-imports.
        """

        def decorator(obj: Callable) -> Callable:
            entry = RegistryEntry(
                name=name,
                builder=obj,
                aliases=tuple(aliases),
                summary=summary,
                metadata=metadata or {},
                valid_kwargs=(
                    valid_kwargs
                    if valid_kwargs is None or callable(valid_kwargs)
                    else tuple(valid_kwargs)
                ),
            )
            self._add(entry, replace=replace)
            return obj

        if builder is not None:
            return decorator(builder)
        return decorator

    def _add(self, entry: RegistryEntry, replace: bool) -> None:
        taken = self._owner_of(entry.name)
        if taken is not None and not (replace and taken == entry.name):
            raise ValueError(
                f"{self.kind} name {entry.name!r} is already registered"
                f" (by {taken!r}); pass replace=True to overwrite"
            )
        for alias in entry.aliases:
            owner = self._owner_of(alias)
            if owner is not None and owner != entry.name:
                raise ValueError(
                    f"{self.kind} alias {alias!r} is already registered (by {owner!r})"
                )
        if replace and entry.name in self._entries:
            self.unregister(entry.name)
        self._entries[entry.name] = entry
        for alias in entry.aliases:
            self._aliases[alias] = entry.name

    def _owner_of(self, name: str) -> str | None:
        if name in self._entries:
            return name
        return self._aliases.get(name)

    def unregister(self, name: str) -> None:
        """Remove a component (and its aliases); unknown names raise."""
        entry = self.get(name)
        del self._entries[entry.name]
        for alias in entry.aliases:
            self._aliases.pop(alias, None)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> RegistryEntry:
        """The entry for ``name`` (aliases resolved)."""
        canonical = self._owner_of(name)
        if canonical is None:
            raise UnknownComponentError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        return self._entries[canonical]

    def metadata(self, name: str) -> Mapping:
        """The (read-only) metadata mapping of ``name``."""
        return self.get(name).metadata

    def names(self, include_aliases: bool = False) -> list[str]:
        """Sorted canonical names (plus aliases when requested)."""
        names = list(self._entries)
        if include_aliases:
            names += list(self._aliases)
        return sorted(names)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._owner_of(name) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={self.names()})"

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def validate_kwargs(self, name: str, kwargs: Mapping) -> None:
        """Raise a ``TypeError`` naming ``name`` and any unknown keyword.

        Builders taking ``**kwargs`` (and without an explicit
        ``valid_kwargs`` registration) accept everything here; their own
        downstream constructor still enforces correctness.  With no keyword
        there is nothing to check, so the builder's signature is not read:
        on Python 3.11, reading the signature of a class without its own
        ``__init__`` leaves a ~14 KiB reference cycle for the cyclic
        collector, and every shard task builds its engine this way.
        """
        entry = self.get(name)
        if not kwargs:
            return
        if entry.valid_kwargs is not None:
            declared = entry.valid_kwargs
            accepted: frozenset[str] = frozenset(
                declared() if callable(declared) else declared
            )
        else:
            accepted, has_var_keyword = _keyword_parameters(entry.builder)
            if has_var_keyword:
                return
        unknown = sorted(set(kwargs) - accepted)
        if unknown:
            raise TypeError(
                f"{self.kind} {entry.name!r} got unexpected keyword argument(s) "
                f"{unknown}; accepted: {sorted(accepted)}"
            )

    def build(self, name: str, /, **kwargs):
        """Construct the component registered under ``name``.

        Keyword arguments are validated against the builder's signature
        first (see :meth:`validate_kwargs`), so typos fail with a clear
        ``TypeError`` instead of surfacing deep inside the constructor.
        """
        entry = self.get(name)
        self.validate_kwargs(name, kwargs)
        return entry.builder(**kwargs)

    # ------------------------------------------------------------------ #
    # discovery
    # ------------------------------------------------------------------ #
    def describe(self) -> list[dict]:
        """One plain-dict row per component, sorted by name.

        Rows carry ``kind``, ``name``, ``aliases``, ``summary`` and a
        deep copy of the metadata (mutating a row never touches the
        registry); ``python -m repro list`` renders them, and they
        serialise cleanly to JSON (metadata permitting).
        """
        rows = []
        for name in self.names():
            entry = self._entries[name]
            rows.append(
                {
                    "kind": self.kind,
                    "name": entry.name,
                    "aliases": list(entry.aliases),
                    "summary": entry.summary,
                    "metadata": copy.deepcopy(dict(entry.metadata)),
                }
            )
        return rows
