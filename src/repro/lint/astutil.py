"""Shared AST machinery for the lint rules: parents, dotted names, guards.

Every rule operates on a module tree produced by :func:`repro.lint.engine`
— which has already attached parent links — so rules can reason about the
*context* of a node (is this call wrapped in ``sorted()``? is it inside the
body branch of an ``if TRACER.enabled:``?) without re-walking the module.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Union

#: Attribute under which the engine stores each node's parent link.
PARENT_ATTR = "_repro_lint_parent"

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node of ``tree`` with a link to its parent node."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, PARENT_ATTR, node)


def parent(node: ast.AST) -> Optional[ast.AST]:
    """The parent of ``node`` (``None`` for the module root)."""
    return getattr(node, PARENT_ATTR, None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Yield ``node``'s ancestors, nearest first, ending at the module."""
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``"os.path.join"`` for a nested attribute access; ``None`` otherwise.

    Only pure ``Name``/``Attribute`` chains resolve; anything computed
    (subscripts, calls) yields ``None``, which every rule treats as
    "unknown — do not flag".
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The dotted name of a call's callee, when statically resolvable."""
    return dotted_name(node.func)


def enclosing_function(node: ast.AST) -> Optional[FunctionNode]:
    """The nearest function definition containing ``node``, if any."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def expression_mentions(tree: ast.AST, attr: str, names: Set[str]) -> bool:
    """Does ``tree`` read ``<anything>.<attr>`` or one of ``names``?

    The guard-detection primitive: ``if TRACER.enabled:`` mentions the
    ``enabled`` attribute, ``if tracing and TRACER.enabled:`` additionally
    mentions the alias name ``tracing``.
    """
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and sub.attr == attr:
            return True
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
    return False


def guarded_by_test(
    node: ast.AST, attr: str = "enabled", alias_names: Optional[Set[str]] = None
) -> bool:
    """Is ``node`` inside the *true* branch of a test mentioning ``attr``?

    Walks the parent chain looking for an ``if``/``while``/conditional
    expression whose test reads ``<x>.<attr>`` (or one of ``alias_names``,
    local variables holding such a read).  Only the body branch counts as
    guarded — code in the ``else`` branch runs exactly when the guard is
    false.
    """
    aliases = alias_names or set()
    previous: ast.AST = node
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.If, ast.While)):
            if (
                expression_mentions(ancestor.test, attr, aliases)
                and previous in ancestor.body
            ):
                return True
        elif isinstance(ancestor, ast.IfExp):
            if (
                expression_mentions(ancestor.test, attr, aliases)
                and previous is ancestor.body
            ):
                return True
        elif isinstance(ancestor, ast.BoolOp) and isinstance(ancestor.op, ast.And):
            # `TRACER.enabled and TRACER.add(...)`: operands after the first
            # run only when every earlier operand was truthy.
            index = next(
                (i for i, value in enumerate(ancestor.values) if value is previous),
                None,
            )
            if index is not None and any(
                expression_mentions(value, attr, aliases)
                for value in ancestor.values[:index]
            ):
                return True
        previous = ancestor
    return False


def assigned_alias_names(function: Optional[FunctionNode], attr: str) -> Set[str]:
    """Local names assigned from an expression reading ``<x>.<attr>``.

    Supports the common two-step guard idiom::

        tracing = TRACER.enabled
        ...
        if tracing:
            TRACER.add(...)
    """
    if function is None:
        return set()
    aliases: Set[str] = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        if not expression_mentions(node.value, attr, set()):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function definitions.

    Module- and class-level statements belong to the enclosing scope; a
    nested ``def``/``lambda`` opens a fresh one and is analysed separately.
    """
    stack = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)
