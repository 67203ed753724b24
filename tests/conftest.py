"""Shared fixtures."""

import pytest

from tapegroups import thompson_f
from tapegroups.errors import NoCaseMatched

DELETED_CASE = "2.2.2b"


@pytest.fixture
def f_case_deleted():
    """thompson_f.apply_gen_report with the x1^-1 branch DELETED_CASE planted
    as a deletion: where that branch fires, x1- leaves its input unchanged.
    x1 accepts the first round trip whose x1- reproduces its input, so under
    the deletion it finds no case exactly when its accepting round trip (the
    last label of its report) took the deleted branch."""
    def apply_report(nf, gen):
        out, report = thompson_f.apply_gen_report(nf, gen)
        if gen == "x1-" and report.cases == (DELETED_CASE,):
            return nf, report
        if gen == "x1" and report.cases[-1] == DELETED_CASE:
            raise NoCaseMatched(f"no multiplication case accepted {nf!r}")
        return out, report
    return apply_report
