import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: an opt-in test, run only when CODESYNC_SLOW=1 is set")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CODESYNC_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="opt-in: set CODESYNC_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
