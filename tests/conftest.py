from pathlib import Path

import pytest

from pcmine.dataset_io import load_transactions
from pcmine.pc_tree import build_tree

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
DEMO_PATH = DATA_DIR / "demo8.dat"


@pytest.fixture(scope="session")
def demo_db():
    """The bundled 8-transaction, 6-item database used by the worked examples."""
    return load_transactions(DEMO_PATH)


@pytest.fixture()
def demo_tree(demo_db):
    return build_tree(demo_db)
