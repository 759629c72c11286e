import pytest
from hypothesis import HealthCheck, settings

from tauforms import _kernels, forms, lseries

# First calls may build shared tables (tau, Eisenstein caches); per-example
# deadlines would make those runs flaky.
settings.register_profile(
    "tauforms", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("tauforms")


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty shared tau, sigma and weight tables, and a log of every kernel build.

    The returned list gets ``("tau", nmax)`` for each ``tau_numbers`` build and
    ``(a, nmax)`` for each ``sigma_range`` build, in call order.
    """
    built = []
    real_tau, real_sigma = _kernels.tau_numbers, _kernels.sigma_range

    def tau_numbers(nmax):
        table = real_tau(nmax)  # a call the kernel refuses builds nothing
        built.append(("tau", nmax))
        return table

    def sigma_range(a, nmax):
        table = real_sigma(a, nmax)
        built.append((a, nmax))
        return table

    monkeypatch.setattr(forms, "_tables", {})
    monkeypatch.setattr(lseries, "_weight_tables", {})
    monkeypatch.setattr(_kernels, "tau_numbers", tau_numbers)
    monkeypatch.setattr(_kernels, "sigma_range", sigma_range)
    return built
