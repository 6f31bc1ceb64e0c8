import numpy as np
import pytest

from pauli_lab.entire_models import profile_product, sinc_product
from pauli_lab.interpolation import AssembledInterpolant


@pytest.fixture(scope="session")
def sinc1600():
    return sinc_product(1600)


@pytest.fixture(scope="session")
def quartic_phi():
    """Even Gaussian-times-quartic model: rate 1.05, half-zero density 0.45."""
    d_full = 0.9
    lam_even = np.sqrt(2.0 * np.arange(1, 2049) / d_full)
    return profile_product(lam_even, d_full / 2.0, gauss_rate=1.05, parity=0)


@pytest.fixture()
def interpolant_calls(monkeypatch):
    """Counts of ``AssembledInterpolant.eval`` and ``eval_hat`` calls from here on."""
    calls = {"eval": 0, "eval_hat": 0}
    for name in calls:
        def counting(self, points, _name=name, _method=getattr(AssembledInterpolant, name)):
            calls[_name] += 1
            return _method(self, points)
        monkeypatch.setattr(AssembledInterpolant, name, counting)
    return calls
