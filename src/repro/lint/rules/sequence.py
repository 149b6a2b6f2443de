"""LSVD002 — sequence-number arithmetic is owned by the log layer.

Strict monotonicity of object/record sequence numbers is what makes the
backend stream recoverable: recovery mounts the longest consecutive run
after the newest checkpoint (§3.3), and the seq-collision regression
(cache rollback reusing a destaged sequence) showed what happens when a
second module starts computing sequence numbers on its own.  Arithmetic
on a ``seq``-like identifier is therefore confined to ``core/log.py``,
``core/block_store.py`` and ``core/write_cache.py``; other modules must
use the accessors those layers export (``BlockStore.newest_seq``,
``WriteCache.resume_after``...).  Comparisons are always fine — only
arithmetic that *produces* a sequence number is flagged.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.typestate import tail_name
from repro.lint.framework import ModuleContext, Rule

#: identifier shapes that denote a sequence number: ``seq``, ``_seq``,
#: ``next_seq``, ``record_sequence``...  Names merely *starting* with
#: ``seq`` (``seq_write_bw`` = *sequential* write bandwidth) do not match.
SEQ_NAME_RE = re.compile(r"(^|_)seq$|(^|_)sequence$")

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Div, ast.Mod)


def _seq_identifier(node: ast.expr) -> Optional[str]:
    """The matched identifier when ``node`` names a sequence value."""
    name = tail_name(node)
    if name and SEQ_NAME_RE.search(name.lower()):
        return name
    return None


class SequenceHygieneRule(Rule):
    """Invariant:
        Sequence numbers are allocated in exactly one place (the log
        layer); arithmetic on ``seq``-named identifiers anywhere else
        risks forking the monotonic stream recovery depends on.

    Example violation::

        next_obj = volume.last_seq + 1   # second allocator, outside core/log

    Paper:
        §3.1 — the object stream is a single dense sequence; §3.3 —
        recovery stops at the first gap, so a duplicated or skipped
        number silently truncates every later write.

    Evidence:
        Commit de875c3: ``core/volume.py`` computed ``last_record_seq + 1``
        twice and ``core/gc.py`` ``next_seq - 1``; they became
        ``WriteCache.resume_after`` and ``BlockStore.newest_seq``.
    """

    code = "LSVD002"
    name = "sequence-hygiene"
    summary = (
        "arithmetic on seq/sequence identifiers outside the log layer; "
        "monotonicity must be owned by core/log, block_store and write_cache"
    )

    def check(self, ctx: ModuleContext, config: LintConfig) -> Iterator[Diagnostic]:
        if config.module_allowed(ctx.path, config.sequence_allow):
            return
        for node in ast.walk(ctx.tree):
            name: Optional[str] = None
            if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
                name = _seq_identifier(node.left) or _seq_identifier(node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, _ARITH_OPS):
                name = _seq_identifier(node.target)
            if name is None:
                continue
            yield self.diag(
                ctx,
                node,
                f"arithmetic on sequence identifier {name!r} outside the log "
                "layer; sequence allocation must stay monotone in one place (§3.3)",
                "use the log layer's accessor (e.g. BlockStore.newest_seq, "
                "WriteCache.resume_after) or move the computation into it",
            )
