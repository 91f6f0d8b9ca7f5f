import pytest


@pytest.fixture(params=["numpy"])
def lane(request):
    """The numeric lane a cross-check exercises: numpy, the only one.

    Tests that compare the package's kernels or the tape oracle with an
    independent route take this fixture, so their ids name the lane they
    check (e.g. `test_replay_determinism[numpy]`).
    """
    return request.param
