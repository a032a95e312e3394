"""The mutation check's list stays in step with the code it mutates and the tests it names."""

import ast
import os

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_text_occurs_once_and_its_tests_exist(mutant):
    with open(os.path.join(mutants.ROOT, mutant.path)) as f:
        assert f.read().count(mutant.old) == 1
    for test in mutant.tests:
        path, name = test.split("::")
        with open(os.path.join(mutants.ROOT, path)) as f:
            module = ast.parse(f.read())
        assert name in {node.name for node in module.body if isinstance(node, ast.FunctionDef)}, test
