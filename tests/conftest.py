import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "40")),
    deadline=None,
    # On unless HYPOTHESIS_DERANDOMIZE=0, so that tier-1 draws the same
    # examples on every run; a scheduled CI job sets 0 to draw new ones.
    derandomize=os.environ.get("HYPOTHESIS_DERANDOMIZE", "1") != "0",
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_configure(config):
    # CI selects these with -m deep --strict-markers and reruns them at 500
    # hypothesis examples.
    config.addinivalue_line(
        "markers", "deep: a property test that CI reruns at 500 hypothesis examples")
