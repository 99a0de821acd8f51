"""The per-class condition builder refuses a kind its dimension has no
equation for: that is a fault of the counting machinery, not a verdict."""

from __future__ import annotations

import pytest

from isoframe.errors import InternalInconsistency
from isoframe.maxwell import _class_checks
from isoframe.symdetect import UnshiftedCounts


@pytest.mark.parametrize("kind, n", [("S", 4), ("i", 2)])
def test_a_kind_with_no_planar_equation_is_an_internal_fault(kind, n):
    counts = UnshiftedCounts(kind, n, 1, 0, 0, (), (), {})
    with pytest.raises(InternalInconsistency, match=f"no 2D condition for kind '{kind}'"):
        _class_checks("X", counts, 2, 4, 5)
