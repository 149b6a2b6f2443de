"""repro.lint — static enforcement of LSVD's global invariants.

The correctness argument of a log-structured virtual disk rests on a
handful of repo-wide properties (PAPER.md §3.1–3.3) that no unit test
can pin down locally:

* backend objects are immutable once PUT, and only the block-store
  layer may mutate the object stream (LSVD001);
* object / record sequence numbers are allocated in exactly one place
  and are strictly monotone (LSVD002);
* everything under the ``DETERMINISM_DIRS`` (``core/``, ``sim/``,
  ``gcsim/``, ...) is deterministic — simulated clock and seeded RNG
  only, no OS entropy (LSVD003);
* recovery code never swallows an exception it cannot classify
  (LSVD004);
* LBA-denominated and byte-denominated quantities never mix silently
  (LSVD005);
* ``struct`` wire formats stay in lock-step with the header dataclasses
  that describe them (LSVD006).

This package parses the source tree with :mod:`ast` and checks those
properties.  Run it as ``python -m repro.lint [paths]`` or via the
``repro-lint`` console script; a tier-1 pytest (``tests/test_lint_clean.py``)
keeps the real tree clean.

Per-line opt-outs use ``# lint: disable=CODE[,CODE...]`` comments;
module allowlists live in :mod:`repro.lint.config` and may be extended
from ``pyproject.toml`` under ``[tool.repro-lint]``.
"""

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.framework import LintRunner, ModuleContext, Rule, run_lint
from repro.lint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "LintConfig",
    "LintRunner",
    "ModuleContext",
    "Rule",
    "Severity",
    "run_lint",
]
