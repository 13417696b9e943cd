import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus(ray_session):
    """1000-page synthetic corpus (cached in /tmp across runs)."""
    from rayxtract.synth import ensure_corpus

    return ensure_corpus(1000)


@pytest.fixture
def resolved(monkeypatch):
    """Every fan-out ``scale.resolve()`` hands out during the test, in call
    order. Exchanges resolve on the driver when they are built, so a
    spy on the module attribute sees each one."""
    from rayxtract import scale

    seen = []
    real = scale.resolve

    def spy():
        n = real()
        seen.append(n)
        return n

    monkeypatch.setattr(scale, "resolve", spy)
    return seen
