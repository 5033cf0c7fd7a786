"""_quadpack.qagse against scipy.integrate.quad, which runs the same
QUADPACK routine compiled: result, error estimate, evaluation count and
interval count must agree bit for bit (==)."""

import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from sievelab import _quadpack
from sievelab import geometry as G


def _scipy_qagse(f, a, b, epsabs, epsrel, limit):
    """(result, abserr, neval, last, ier != 0) from quad's full output."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    # quad appends a message only when QUADPACK's ier is nonzero
    return out[0], out[1], out[2]["neval"], out[2]["last"], len(out) > 3


def _assert_qagse_matches(f, a, b, epsabs=0.0, epsrel=1e-11, limit=200):
    result, abserr, neval, ier, last = got = _quadpack.qagse(f, a, b, epsabs, epsrel, limit)
    assert (result, abserr, neval, last, ier != 0) == _scipy_qagse(f, a, b, epsabs, epsrel,
                                                                   limit), got
    return got


def _step(x):
    return 1.0 if x < 0.37 else 0.0


INTEGRANDS = [
    ("smooth", math.exp, 0.0, 1.0),
    ("oscillatory", lambda x: math.sin(50.0 * x), 0.0, 3.0),
    ("peaked", lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0),
    ("inv-sqrt", lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
    ("log", math.log, 0.0, 1.0),
    ("log-zero-mean", lambda x: math.log(x) + 1.0, 0.0, 1.0),  # changes sign
    ("pow-0.9", lambda x: x ** -0.9, 0.0, 1.0),
    ("step", _step, 0.0, 1.0),
    ("zero", lambda x: 0.0, 0.0, 1.0),
    ("kink", lambda x: abs(x - 0.1234567), -1.0, 2.0),
    ("log2-inv-sqrt", lambda x: math.log(x) ** 2 / math.sqrt(x), 0.0, 1.0),
    ("divergent", lambda x: 1.0 / x, 0.0, 1.0),
    # these run out of subintervals, where only the largest errors stay sorted
    ("sin-inv", lambda x: math.sin(1.0 / x), 0.0, 1.0),
    ("stairs", lambda x: float(int(x * 7.3) % 2), 0.0, 1.0),
]
TOLERANCES = [
    (0.0, 1e-11, 200),  # what wedge_volume_quad asks for
    (1.49e-8, 1.49e-8, 50),  # quad's defaults
    (1e-10, 0.0, 200),  # epsabs only
    (1e-14, 0.0, 100),
    (0.0, 1e-11, 15),
    (0.0, 1e-13, 3),  # limit 3
    (1e-6, 0.0, 1),  # limit 1
]


@pytest.mark.parametrize("epsabs, epsrel, limit", TOLERANCES,
                         ids=[f"abs{t[0]}-rel{t[1]}-lim{t[2]}" for t in TOLERANCES])
@pytest.mark.parametrize("f, a, b", [i[1:] for i in INTEGRANDS], ids=[i[0] for i in INTEGRANDS])
def test_qagse_matches_scipy(f, a, b, epsabs, epsrel, limit):
    _assert_qagse_matches(f, a, b, epsabs, epsrel, limit)


@pytest.mark.parametrize("name", ["inv-sqrt", "log", "pow-0.9"])
def test_endpoint_singularities_reach_the_extrapolation(monkeypatch, name):
    calls = []
    qelg = _quadpack._qelg

    def counting(*args):
        calls.append(args[0])
        return qelg(*args)

    monkeypatch.setattr(_quadpack, "_qelg", counting)
    f, a, b = next(i[1:] for i in INTEGRANDS if i[0] == name)
    _assert_qagse_matches(f, a, b)
    assert len(calls) >= 3


def test_error_codes_are_reported():
    # limit 1 stops at once (ier 1); 1/x on (0, 1] diverges
    assert _quadpack.qagse(math.exp, 0.0, 1.0, 0.0, 1e-13, 1)[3] == 1
    assert _quadpack.qagse(lambda x: 1.0 / x, 0.0, 1.0, 0.0, 1e-11, 200)[3] != 0
    assert _quadpack.qagse(math.exp, 0.0, 1.0, 0.0, 1e-11, 200)[3] == 0


@pytest.mark.parametrize("epsabs, epsrel, limit", [(0.0, 1e-16, 50), (-1.0, 0.0, 50),
                                                   (1e-8, 1e-8, 0)])
def test_invalid_tolerances_and_limit_raise(epsabs, epsrel, limit):
    with pytest.raises(ValueError):
        _quadpack.qagse(math.exp, 0.0, 1.0, epsabs, epsrel, limit)


@given(d=st.integers(2, 64), alpha=st.floats(-0.95, 0.95), beta=st.floats(-0.95, 0.95),
       theta=st.floats(0.05, 3.09))
def test_qagse_matches_scipy_on_wedge_integrands(d, alpha, beta, theta):
    # record the integrand and pieces wedge_volume_quad hands to qagse
    calls = []

    def recording(f, a, b, *rest):
        calls.append((f, a, b))
        return _quadpack.qagse(f, a, b, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(G, "qagse", recording)
        G.wedge_volume_quad(d, alpha, beta, theta)
    for f, a, b in calls:
        _assert_qagse_matches(f, a, b)
