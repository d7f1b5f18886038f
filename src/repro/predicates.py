"""The integer and real-number checks every configuration boundary shares.

A value that would be truncated or coerced (``2.5`` read as 2, ``True`` as
1, ``"3"`` as 3) is never the one a caller meant, so the library's
boundaries accept only Python or numpy numbers of the right kind.  Each
caller raises its own exception type; these predicates only answer.
"""

from __future__ import annotations

import numbers


def is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer (a bool is not)."""
    if type(value) is int:  # the fast path skips the ABC check
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """Whether ``value`` is a Python or numpy real number (a bool is not)."""
    if type(value) is float or type(value) is int:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
