import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
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
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture(params=["driver", "actors"])
def placement(request, monkeypatch):
    """Applier placement of the replays a test runs: ``driver`` keeps the
    default (a log this small applies in the driver), ``actors`` sets
    ``util.DRIVER_POOL_ROWS = 0`` so the pool spawns its applier actors."""
    from commons_codec_ray import util

    if request.param == "actors":
        monkeypatch.setattr(util, "DRIVER_POOL_ROWS", 0)
    return request.param
