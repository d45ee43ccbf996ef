import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "40")),
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_configure(config):
    # CI selects these with -m deep --strict-markers and reruns them at 500
    # hypothesis examples.
    config.addinivalue_line(
        "markers", "deep: a property test that CI reruns at 500 hypothesis examples")
