"""repro lint: AST-based determinism & state-contract checking.

The simulator rests on contracts that no runtime test checks until a
golden trace diverges: snapshot completeness (DESIGN.md §10),
commit-boundary determinism (§8/§11), and None-vs-0 probe semantics.
This package verifies them *statically* — `python -m repro lint
src/repro` walks every module's AST through a set of pluggable rules
and fails CI on any finding (see DESIGN.md §13).

Layout:

* :mod:`repro.lint.core`    — module loading, suppression parsing, the
  :class:`Rule` plugin protocol, and the two-phase driver;
* :mod:`repro.lint.report`  — text and JSON reporters;
* :mod:`repro.lint.cli`     — argument parsing and exit codes;
* :mod:`repro.lint.rules`   — the shipped rule plugins.

Inline suppression::

    self.span_hits = 0  # repro: lint-ok[snapshot-coverage] strategy state

A suppression comment on its own line applies to the next code line.
The reason text is mandatory; a reasonless suppression is itself a
finding (``bad-suppression``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core": ("Finding", "LintError", "ModuleInfo", "Rule", "lint_paths",
             "lint_source"),
    "rules": ("all_rules",),
})
