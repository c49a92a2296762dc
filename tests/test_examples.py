"""Every example script imports against the current API.

The examples guard their work behind ``if __name__ == "__main__"``, so
importing one trains nothing: it only resolves its ``from repro...
import name`` lines.  Deleting an API an example still uses then fails
here rather than at the example's next manual run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
