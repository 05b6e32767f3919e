import numpy as np
import pytest

import panels


@pytest.fixture(scope="session")
def three_regime():
    return panels.three_regime_panel(seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, take) makes owner.name record take(*args, **kwargs)
    on each call and then call through; it returns the list of records."""

    def install(owner, name, take):
        records, original = [], getattr(owner, name)

        def recording(*args, **kwargs):
            records.append(take(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return records

    return install
