"""RPR107 — bit-unpacking calls in the fused decode hot path.

The fused Monte-Carlo pipeline's whole value proposition (PR 10) is that a
round never materializes ``(num_words, n)`` ``uint8`` batches: masks stay in
packed ``uint64`` lanes (or sparser forms) from injection through
classification.  A single ``np.unpackbits`` — or one of the
:mod:`repro.gf2.bitpack` unpack helpers — inside ``einsim/fused.py``
silently reintroduces the 8x memory blow-up and the
per-bit arithmetic the fused backend exists to avoid, while every
differential test keeps passing.  This rule makes the regression a lint
failure instead of a benchmark-gate surprise.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.astutil import dotted_name
from repro.lint.engine import Finding, LintContext, Rule

#: Module paths (below ``repro``) that form the fused packed-only hot path.
FUSED_HOT_MODULES = (("einsim", "fused.py"),)

#: :mod:`repro.gf2.bitpack` helpers that materialize unpacked uint8 batches.
_BITPACK_UNPACK_HELPERS = {"unpack_rows"}

#: Modules whose ``unpackbits`` attribute is the numpy unpacker.
_NUMPY_RECEIVERS = {"np", "numpy"}


class FusedPathUnpackRule(Rule):
    code = "RPR107"
    name = "fused-path-unpack"
    summary = "no np.unpackbits / unpack_rows in the fused decode hot path"
    explanation = """\
The fused kernel (repro.einsim.fused) classifies whole Monte-Carlo rounds
over packed uint64 lanes; it must never materialize a one-byte-per-bit
batch.

Bad (inside the fused module):
    bits = np.unpackbits(lanes.view(np.uint8), bitorder="little")
    rows = unpack_rows(lanes, num_bits)       # from repro.gf2.bitpack

Good:
    mask_bytes = lanes_to_bytes(lanes, num_bits)     # stays packed
    counts = packed_column_counts(mask_bytes, num_bits)

Work from the packed helpers in repro.gf2.bitpack (lanes_to_bytes,
packed_column_counts, popcount_u64, fold_bytes) instead; unpacking is fine
anywhere else — tests, analysis, the staged reference backend — just not on
the fused hot path whose benchmarks assume it never happens."""

    def applies(self, context: LintContext) -> bool:
        return context.module_tail() in FUSED_HOT_MODULES

    def check(self, context: LintContext) -> List[Finding]:
        imported = self._unpack_imports(context.tree)
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._unpack_label(node, imported)
            if label is None:
                continue
            findings.append(
                self.finding(
                    context,
                    node,
                    f"{label} materializes one byte per bit inside the fused "
                    "packed-only pipeline; use the packed helpers in "
                    "repro.gf2.bitpack (lanes_to_bytes, packed_column_counts, "
                    "popcount_u64) instead",
                )
            )
        return findings

    @staticmethod
    def _unpack_imports(tree: ast.Module) -> Set[str]:
        """Local names bound to an unpacker by a module-level import."""
        names: Set[str] = set()
        for node in tree.body:
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module in ("repro.gf2.bitpack", "repro.gf2"):
                for alias in node.names:
                    if alias.name in _BITPACK_UNPACK_HELPERS:
                        names.add(alias.asname or alias.name)
            elif node.module == "numpy":
                for alias in node.names:
                    if alias.name == "unpackbits":
                        names.add(alias.asname or alias.name)
        return names

    @staticmethod
    def _unpack_label(node: ast.Call, imported: Set[str]) -> str | None:
        callee = dotted_name(node.func)
        if callee is None:
            return None
        if "." in callee:
            receiver, _, method = callee.rpartition(".")
            if receiver in _NUMPY_RECEIVERS and method == "unpackbits":
                return f"{callee}(...)"
            return None
        if callee in imported or callee in _BITPACK_UNPACK_HELPERS:
            return f"{callee}(...)"
        return None
