"""Shared fixtures."""

import dis
import linecache
import sys
from importlib.machinery import SourceFileLoader

import pytest

SOURCES = {}  # file name -> the module's source lines as it was imported


def _exec_module(self, module, exec_module=SourceFileLoader.exec_module):
    """SourceFileLoader.exec_module, keeping the module's source first, so
    that a gate names the lines of the code that runs even if the file is
    edited during the test run."""
    SOURCES[self.path] = self.get_source(self.name).splitlines()
    exec_module(self, module)


SourceFileLoader.exec_module = _exec_module

from tapegroups import thompson_f  # noqa: E402  (after the snapshot hook)
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


def _unrun_lines(programs, run):
    """The lines of programs that run() does not reach under a line trace,
    sorted, as (function name, stripped source line) pairs.  The source is
    the module's as it was imported (SOURCES), else the file's."""
    hit = {fn.__code__: set() for fn in programs}

    def trace(frame, event, arg):
        lines = hit.get(frame.f_code)
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local(frame, event, arg)

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(old)
    unrun = []
    for fn in programs:
        code = fn.__code__
        source = SOURCES.get(code.co_filename) or linecache.getlines(code.co_filename)
        lines = {line for _, line in dis.findlinestarts(code) if line is not None}
        unrun += [(fn.__name__, source[line - 1].strip()) for line in lines - hit[code]]
    return sorted(unrun)


@pytest.fixture
def unrun_lines():
    """_unrun_lines, for the gates that a corpus reaches every line of a
    group's tape programs.  A fixture, since tests/ and perfbench/tests/
    each have a conftest module and neither can be imported by name."""
    return _unrun_lines
