"""repro.lint — static enforcement of LSVD's global invariants.

The correctness argument of a log-structured virtual disk rests on a
handful of repo-wide properties (PAPER.md §3.1–3.3) that no unit test
can pin down locally:

* object / record sequence numbers are allocated in exactly one place
  and are strictly monotone (LSVD002);
* everything under the ``DETERMINISM_DIRS`` (``core/``, ``sim/``,
  ``gcsim/``, ...) is deterministic — simulated clock and seeded RNG
  only, no OS entropy (LSVD003);
* recovery code never swallows an exception it cannot classify
  (LSVD004);
* LBA-denominated and byte-denominated quantities never mix silently
  (LSVD005);
* stat counters go through the ``repro.obs`` registry (LSVD007) and the
  data-plane modules stay off O(n) shuffles and per-extent copies
  (LSVD009);
* the ordering invariants — a PUT handle is settled, an ack follows
  durability, a barrier settles after its FLUSH, I/O passes admission,
  a relocation is classified (LSVD010/011/014/016/017; see
  :mod:`repro.lint.flow`).

Every rule cites the catch or crash mutant that justifies it
(``--explain``'s ``Evidence:`` section).

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
