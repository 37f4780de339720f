import doctest
from pathlib import Path


def test_readme_library_example():
    result = doctest.testfile(str(Path(__file__).resolve().parents[1] / "README.md"),
                              module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
