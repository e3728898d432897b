"""Every test starts from an environment without ``REPRO_*`` settings.

The suite must give the same result whatever the shell exported (a
``REPRO_JOBS`` or ``REPRO_SCALE`` left over from a benchmark session
changes how sweeps run), so each test sees none of them; a test that
needs one sets it through ``monkeypatch`` itself.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _no_repro_env(monkeypatch):
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)
