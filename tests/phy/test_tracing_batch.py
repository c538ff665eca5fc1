"""Golden tracer tests: the byte-identity contract of the ray tracer.

``tracing_goldens.json`` (next to this file) pins the exact ray lists the
fixtures below traced at the commit recorded in it: every :class:`Ray`
field, floats in shortest repr.  :func:`trace_rays_cached` must reproduce
them bit for bit, from cold and from warm caches.

The goldens change only with an intended change of tracing behaviour.
Regenerate them with::

    PYTHONPATH=src python -m tests.phy.test_tracing_batch --write COMMIT
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.env.geometry import Point, Segment
from repro.env.rooms import make_conference_room, make_lobby
from repro.phy import tracing
from repro.phy.antenna import sibeam_codebook
from repro.phy.channel import ChannelState, LinkGeometry, snr_db, snr_matrix_db
from repro.phy.tracing import TraceEngine, engine_for, trace_rays_cached
from tests.conftest import rays_up_to
from tests.goldens import dumps_goldens

GOLDENS_PATH = Path(__file__).with_name("tracing_goldens.json")

RAY_FIELDS = ("aod_deg", "aoa_deg", "path_length_m", "loss_db", "order", "via")
ROOMS = (make_lobby, make_conference_room)


@pytest.fixture(autouse=True)
def _fresh_caches():
    tracing.clear_caches()
    yield
    tracing.clear_caches()


def random_geometry(rng, room, with_blocker=False):
    tx = Point(rng.uniform(0.5, room.length - 0.5), rng.uniform(0.5, room.width - 0.5))
    rx = Point(rng.uniform(0.5, room.length - 0.5), rng.uniform(0.5, room.width - 0.5))
    blockers = ()
    if with_blocker:
        mid = Point((tx.x + rx.x) / 2.0, (tx.y + rx.y) / 2.0)
        blockers = (
            Segment(
                Point(mid.x - 0.2, mid.y - 0.2),
                Point(mid.x + 0.2, mid.y + 0.2),
                material_loss_db=15.0,
            ),
        )
    return LinkGeometry(room, tx, rx, blockers)


def random_links(seed, make_room, count, with_blocker=False):
    rng = np.random.default_rng(seed)
    room = make_room()
    return [random_geometry(rng, room, with_blocker) for _ in range(count)]


def snr_geometries():
    """The link and the interferer→Rx path of :class:`TestSnrMatrixParity`."""
    (geometry,) = random_links(7, make_lobby, 1)
    towards_rx = LinkGeometry(geometry.room, Point(5.0, 5.0), geometry.rx_position)
    return geometry, towards_rx


def fixtures() -> dict:
    """Golden key → (link geometries, max_order)."""
    cases = {}
    for make_room in ROOMS:
        room_id = make_room.__name__
        for with_blocker in (False, True):
            cases[f"random/{room_id}/blocker={with_blocker}"] = (
                random_links(42, make_room, 25, with_blocker), 2
            )
        cases[f"los_only/{room_id}"] = (random_links(4, make_room, 10, True), 0)
    cases["first_order/make_lobby"] = (random_links(3, make_lobby, 10), 1)
    cases["snr/make_lobby"] = (list(snr_geometries()), 2)
    return cases


def ray_record(ray) -> list:
    return [ray.aod_deg, ray.aoa_deg, ray.path_length_m, ray.loss_db,
            ray.order, list(ray.via)]


def trace_records(geometries, max_order) -> list:
    return [[ray_record(r) for r in rays_up_to(g, max_order)] for g in geometries]


def capture() -> dict:
    return {
        key: trace_records(geometries, max_order)
        for key, (geometries, max_order) in fixtures().items()
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    document = json.loads(GOLDENS_PATH.read_text())
    assert tuple(document["fields"]) == RAY_FIELDS
    return document["records"]


def assert_matches_golden(goldens, key):
    """Fixture ``key`` traces to its pinned rays from cold and warm caches."""
    geometries, max_order = fixtures()[key]
    assert trace_records(geometries, max_order) == goldens[key]
    assert trace_records(geometries, max_order) == goldens[key]


class TestTracerParity:
    @pytest.mark.parametrize("make_room", ROOMS)
    @pytest.mark.parametrize("with_blocker", [False, True])
    def test_random_links_match_scalar(self, goldens, make_room, with_blocker):
        """The pinned rays agreed with the image method's scalar reference
        to ≤1e-9 when they were captured; exact equality keeps that."""
        assert_matches_golden(
            goldens, f"random/{make_room.__name__}/blocker={with_blocker}"
        )

    def test_first_order_only(self, goldens):
        assert_matches_golden(goldens, "first_order/make_lobby")

    @pytest.mark.parametrize("make_room", ROOMS)
    def test_los_only(self, goldens, make_room):
        assert_matches_golden(goldens, f"los_only/{make_room.__name__}")

    def test_every_fixture_is_pinned(self, goldens):
        assert sorted(goldens) == sorted(fixtures())

    def test_rays_sorted_by_loss(self):
        geometry = random_geometry(np.random.default_rng(0), make_lobby())
        rays = trace_rays_cached(geometry)
        losses = [r.loss_db for r in rays]
        assert losses == sorted(losses)


class TestTracerCaching:
    def test_engine_reused_per_tx(self):
        room = make_lobby()
        assert engine_for(room, Point(2.0, 3.0)) is engine_for(room, Point(2.0, 3.0))
        assert engine_for(room, Point(2.0, 3.0)) is not engine_for(room, Point(2.0, 4.0))

    def test_repeat_trace_hits_ray_cache(self):
        room = make_lobby()
        engine = TraceEngine(room, Point(2.0, 3.0))
        first = engine.trace(Point(8.0, 4.0))
        again = engine.trace(Point(8.0, 4.0))
        assert first == again

    def test_cached_result_is_a_copy(self):
        """Mutating a returned list must not corrupt the cache."""
        geometry = random_geometry(np.random.default_rng(1), make_lobby())
        rays = trace_rays_cached(geometry)
        rays.clear()
        assert len(trace_rays_cached(geometry)) > 0

    def test_clear_caches_resets_engines(self):
        room = make_lobby()
        engine = engine_for(room, Point(2.0, 3.0))
        tracing.clear_caches()
        assert engine_for(room, Point(2.0, 3.0)) is not engine


class TestSnrMatrixParity:
    """snr_matrix_db[i, j] must equal the scalar snr_db of pair (i, j)."""

    def test_traced_links_match_golden(self, goldens):
        assert_matches_golden(goldens, "snr/make_lobby")

    @pytest.mark.parametrize("with_interference", [False, True])
    def test_matrix_matches_scalar(self, with_interference):
        from repro.phy.interference import InterferenceField

        codebook = sibeam_codebook()
        geometry, towards_rx = snr_geometries()
        rays = trace_rays_cached(geometry)
        interference = None
        if with_interference:
            interference = InterferenceField(
                tuple(trace_rays_cached(towards_rx)), eirp_dbm=5.0
            )
        state = ChannelState(
            rays=rays, noise_dbm=-78.0, interference=interference, geometry=geometry
        )
        matrix = snr_matrix_db(state, codebook, 10.0, 190.0, 10.0)
        assert matrix.shape == (len(codebook), len(codebook))
        for i in range(0, len(codebook), 3):
            for j in range(0, len(codebook), 3):
                scalar = snr_db(state, codebook[i], codebook[j], 10.0, 190.0, 10.0)
                assert abs(matrix[i, j] - scalar) <= 1e-9


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.phy.test_tracing_batch --write COMMIT")
    document = {
        "captured_at": sys.argv[2],
        "note": "Tracer goldens for tests/phy/test_tracing_batch.py: one "
                "list of rays per traced link, floats in shortest repr.",
        "fields": list(RAY_FIELDS),
        "records": capture(),
    }
    GOLDENS_PATH.write_text(dumps_goldens(document))
    print(f"wrote {len(document['records'])} records to {GOLDENS_PATH}")
