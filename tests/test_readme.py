"""The README's library examples, run as doctests so that the values they show stay right."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples(monkeypatch):
    monkeypatch.chdir(README.parent)  # the examples open data/demo8.dat
    failed, attempted = doctest.testfile(str(README), module_relative=False,
                                         optionflags=doctest.ELLIPSIS)
    assert attempted > 0 and failed == 0
