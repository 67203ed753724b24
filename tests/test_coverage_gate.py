"""The line-coverage gates (conftest's `unrun_lines`) name the lines of the
code that ran, even if its file is edited during the test run."""

import importlib.util

MODULE = '''\
def probe(x):
    if x:
        return "taken"
    return "not taken"
'''


def test_gate_names_the_imported_lines_after_the_file_is_edited(tmp_path, unrun_lines):
    path = tmp_path / "gate_probe.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("gate_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path.write_text("# an edit made while the tests run\n\n\n\n" + MODULE)
    probe = module.probe
    assert unrun_lines([probe], lambda: probe(True)) == [("probe", 'return "not taken"')]
    assert unrun_lines([probe], lambda: probe(False)) == [("probe", 'return "taken"')]
