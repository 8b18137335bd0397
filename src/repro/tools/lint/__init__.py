"""AST-based invariant linter (``repro lint``).

Static enforcement of the conventions the test suite can only
spot-check dynamically.  The built-in rules:

=======  ====================  ============================================
code     slug                  invariant
=======  ====================  ============================================
REP001   naked-nondeterminism  seeded components draw only from
                               counter-derived ``SeedSequence`` generators
REP002   shared-mutable-state  no module/class-level mutable containers in
                               backend-executed files (the PR 7 race class)
REP003   implicit-dtype        reference-tier array constructors pass an
                               explicit ``dtype=``
REP004   registry-hygiene      component subclasses are registered;
                               ``config_defaults`` keys match the builder
REP005   service-robustness    no bare except / deadline-less sockets /
                               non-atomic state writes in the service layer
REP006   blas-out-aliasing     ``out=`` of matmul/dot/einsum never aliases
                               an input buffer
=======  ====================  ============================================

Suppress per line with ``# repro-lint: disable=REP001 -- why``; every
other finding fails the gate.  Third-party scenario packs run the same
checks on their own trees (``repro lint --unscoped mypack/``) and
register additional rules on :data:`LINT_RULES` through the public
:class:`repro.registry.Registry` API.
"""

import importlib

#: The public names and the submodule defining each.  They load on first
#: access (PEP 562), which also registers the built-in rules, so the
#: ``repro`` CLI mounts the lint flags (:mod:`repro.tools.lint.cli`)
#: without parsing a rule module.  Import them from here: importing
#: :mod:`repro.tools.lint.framework` alone registers no rule.
_EXPORTS = {
    "LINT_RULES": "framework",
    "Finding": "framework",
    "LintReport": "framework",
    "LintRule": "framework",
    "ModuleSource": "framework",
    "lint_paths": "framework",
    "lint_text": "framework",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Load a public name's submodule, registering the built-in rules first."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.rules")  # registers the built-in rules
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
