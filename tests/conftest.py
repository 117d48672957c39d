import os
import threading

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: How long a thread a test started may take to finish after the test.
THREAD_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started alive, such as the workers
    of an executor that was never shut down."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    for thread in leaked:
        thread.join(THREAD_GRACE_S)
    alive = [t.name for t in leaked if t.is_alive()]
    if alive:
        pytest.fail(f"test left {len(alive)} thread(s) running: {alive}")
