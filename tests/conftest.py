import pytest


@pytest.fixture(params=["numpy"])
def lane(request):
    """The numeric lane a cross-check exercises: numpy, the only one.

    Tests that compare the package's kernels or the tape oracle with an
    independent route take this fixture, so their ids name the lane they
    check (e.g. `test_replay_determinism[numpy]`).
    """
    return request.param


@pytest.fixture
def adam_grads(monkeypatch):
    """The gradients `metalearn.adam_update` receives, in call order: the
    meta-gradients of a test's `meta_step` calls."""
    from hamlearn import metalearn
    grads, real = [], metalearn.adam_update

    def spy(state, params, grad, lr):
        grads.append(grad.copy())
        return real(state, params, grad, lr)

    monkeypatch.setattr(metalearn, "adam_update", spy)
    return grads
