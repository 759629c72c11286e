import pytest
from hypothesis import HealthCheck, settings

from tauforms import _kernels, forms, qseries

# First calls may build entries of the shared table store (tau, sigma, the
# exact Eisenstein series); per-example deadlines would make those runs flaky.
settings.register_profile(
    "tauforms", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("tauforms")


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty table store (tau words, sigma, weights and the exact series E_k,
    E2^r and E4^a E6^b), and a log of every kernel build.

    The returned list gets ``("tau", nmax)`` for each ``eta24_modp`` build (the
    FFT build of tau(1..nmax), whichever table asked for it) and ``(a, nmax)``
    for each ``sigma_range`` build, in call order.
    """
    built = []
    real_eta24, real_sigma = _kernels.eta24_modp, _kernels.sigma_range

    def eta24_modp(nmax):
        words = real_eta24(nmax)
        built.append(("tau", nmax))
        return words

    def sigma_range(a, nmax):
        table = real_sigma(a, nmax)
        built.append((a, nmax))
        return table

    monkeypatch.setattr(forms, "_tables", {})
    monkeypatch.setattr(_kernels, "eta24_modp", eta24_modp)
    monkeypatch.setattr(_kernels, "sigma_range", sigma_range)
    return built


@pytest.fixture
def products(monkeypatch):
    """A log of every exact product: the operands of each ``_kronecker_product``
    call, cut to the product's length, as a pair of tuples in call order."""
    real, made = qseries._kronecker_product, []

    def kronecker_product(va, vb):
        n = min(len(va), len(vb))
        made.append((tuple(va[:n]), tuple(vb[:n])))
        return real(va, vb)

    monkeypatch.setattr(qseries, "_kronecker_product", kronecker_product)
    return made
