import numpy as np
import pytest
import scipy.integrate as sintegrate

from shbif.oracles import field_callable


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _inner_by_quadrature(f, g) -> float:
    """<f, g> on a 1-d domain by adaptive quadrature, without the FFT path."""
    uf, ug = field_callable(f), field_callable(g)
    val, _err = sintegrate.quad(lambda x: uf(x) * ug(x), 0.0, f.domain.length[0],
                                limit=400, epsabs=1e-13, epsrel=1e-13)
    return val


@pytest.fixture
def inner_by_quadrature():
    return _inner_by_quadrature
