"""perfbench keeps its own copies of the run directory's file names. A
change to the run format that leaves them behind fails here, in tier-1, not
only in a benchmark run. The copies are read from the source with ``ast``,
so no perfbench module is imported."""

import ast
from pathlib import Path

import pytest

from traitsim.engine import MANIFEST, OUTPUTS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def module_constant(filename, name):
    """The literal value of the one module-level ``name = ...`` in
    ``perfbench/filename``."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    values = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == name
                      for target in node.targets)]
    assert len(values) == 1, f"{filename} assigns {name} {len(values)} times"
    return values[0]


@pytest.mark.parametrize("filename, name, expected", [
    ("worker.py", "OUTPUTS", OUTPUTS),
    ("tracer.py", "ARTIFACTS", OUTPUTS + (MANIFEST,)),
])
def test_perfbench_lists_the_run_files(filename, name, expected):
    assert module_constant(filename, name) == expected
