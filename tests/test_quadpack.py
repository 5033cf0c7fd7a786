"""geometry's tanh-sinh rule against QUADPACK's qagse, the adaptive
Gauss-Kronrod routine that scipy.integrate.quad runs.

Each case runs quad at one tolerance setting and checks that the rule's
result lies within the error quad reports for its own, widened by the
relative tolerance at which the rule stops.  The integrands are smooth
between the cuts the rule is given, as the wedge integrands are, or have
a mild integrable singularity at an end.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from sievelab import geometry as G

INTEGRANDS = [  # (name, f, cuts)
    ("smooth", np.exp, [0.0, 1.0]),
    ("oscillatory", lambda x: np.sin(50.0 * x), [0.0, 3.0]),
    ("inv-sqrt", lambda x: 1.0 / np.sqrt(x), [0.0, 1.0]),
    ("log", np.log, [0.0, 1.0]),
    ("log-zero-mean", lambda x: np.log(x) + 1.0, [0.0, 1.0]),  # changes sign
    ("step", lambda x: (x < 0.37) * 1.0, [0.0, 0.37, 1.0]),
    ("zero", lambda x: 0.0 * x, [0.0, 1.0]),
    ("kink", lambda x: np.abs(x - 0.1234567), [-1.0, 0.1234567, 2.0]),
    ("log2-inv-sqrt", lambda x: np.log(x) ** 2 / np.sqrt(x), [0.0, 1.0]),
]
TOLERANCES = [
    (0.0, 1e-11, 200),
    (1.49e-8, 1.49e-8, 50),  # quad's defaults
    (1e-10, 0.0, 200),  # epsabs only
    (1e-14, 0.0, 100),
    (0.0, 1e-11, 15),
    (0.0, 1e-13, 3),  # limit 3
    (1e-6, 0.0, 1),  # limit 1
]


@pytest.mark.parametrize("epsabs, epsrel, limit", TOLERANCES,
                         ids=[f"abs{t[0]}-rel{t[1]}-lim{t[2]}" for t in TOLERANCES])
@pytest.mark.parametrize("f, cuts", [i[1:] for i in INTEGRANDS], ids=[i[0] for i in INTEGRANDS])
def test_qagse_matches_scipy(f, cuts, epsabs, epsrel, limit):
    got = G._tanh_sinh(lambda x, w: w * f(x), cuts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # limits 1 and 3 stop early
        result, abserr = quad(f, cuts[0], cuts[-1], epsabs=epsabs, epsrel=epsrel, limit=limit)
    assert math.isfinite(got)
    # quad's estimate plus the rule's own stopping tolerance
    assert abs(got - result) <= abserr + G._TANH_SINH_TOL * abs(result), (got, result, abserr)
