"""Image-method ray tracing: the 60 GHz channel's sparse set of rays.

The channel between a Tx pose and an Rx position is the LOS path plus
first- and second-order wall/clutter reflections, found with the image
method (§6.1 leans on this sparsity).  Each :class:`~repro.phy.channel.Ray`
carries its AoD/AoA in the global frame, its path length, and its loss:
free-space + oxygen, reflection, clutter and human-blockage losses.

The measurement campaign traces the *same* (room, Tx) thousands of times —
across Rx positions, blockage reps, and the clear/blocked halves of every
capture — so :class:`TraceEngine` precomputes everything that depends only
on (room, Tx): columnar wall endpoint arrays, first-order Tx images, and
the nested second-order image for every ordered wall pair.  A trace for
one Rx is then a handful of NumPy broadcasts (intersections, clearance
tests, blockage and path losses) over all walls / wall pairs at once.

Determinism contract (tested in ``tests/phy/test_tracing_batch.py``):

* the ray lists pinned in ``tests/phy/tracing_goldens.json`` define the
  output — same rays, same sort order, every field bit for bit;
* engines and per-Rx results are cached purely by value (room geometry,
  poses, blockers), so caching can never change a seeded run's output.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.constants import (
    CARRIER_FREQUENCY_HZ,
    OXYGEN_ABSORPTION_DB_PER_KM,
    SPEED_OF_LIGHT_M_S,
)
from repro.env.geometry import Point, Segment, path_is_clear, segment_intersection
from repro.env.rooms import Room
from repro.phy.channel import LinkGeometry, Ray
from repro.phy.propagation import path_loss_db

MAX_REFLECTION_ORDER = 2
"""Bounce depth of every trace: the LOS path plus first- and second-order
reflections.  Dataset checkpoints record it in their config fingerprint."""

_MIN_RAY_GAIN_DB = -140.0
"""Rays with more than 140 dB of loss are dropped (below any noise floor)."""

_EPS = 1e-9
_ENDPOINT_TOL_M = 1e-3  # matches geometry.path_is_clear
_WAVELENGTH_M = SPEED_OF_LIGHT_M_S / CARRIER_FREQUENCY_HZ


def _segment_key(seg: Segment) -> tuple:
    """Value identity of a segment (geometry + loss + name)."""
    return (seg.a.x, seg.a.y, seg.b.x, seg.b.y, seg.material_loss_db, seg.name)


def _blockers_key(blockers: Sequence[Segment]) -> tuple:
    return tuple(
        (b.a.x, b.a.y, b.b.x, b.b.y, b.material_loss_db) for b in blockers
    )


def room_signature(room: Room) -> tuple:
    """Value identity of a room's reflecting geometry (cache key component)."""
    return (room.name, tuple(_segment_key(s) for s in room.reflectors()))


def _path_loss_db_array(length_m: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.phy.propagation.path_loss_db` (same formulas)."""
    d = np.maximum(length_m, 0.1)
    fspl = 20.0 * np.log10(4.0 * math.pi * d / _WAVELENGTH_M)
    # Oxygen absorption uses the *unclamped* length, as path_loss_db does.
    return fspl + OXYGEN_ABSORPTION_DB_PER_KM * length_m / 1000.0


def _mirror_points(points: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Mirror each ``points[k]`` across the line through ``wa[k]→wb[k]``.

    Follows :func:`repro.env.geometry.mirror_point` operation for operation
    (normalize, project, reflect) so results are bit-identical.
    """
    d = wb - wa
    norm = np.hypot(d[:, 0], d[:, 1])[:, None]
    dn = d / norm
    ap = points - wa
    par = dn * (ap[:, 0] * dn[:, 0] + ap[:, 1] * dn[:, 1])[:, None]
    return wa + par - (ap - par)


def _intersections(
    p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise segment intersection, mirroring ``segment_intersection``.

    Inputs broadcast against each other ((N, 2) rows or a single (2,)
    point).  Returns ``(hit, valid)`` where ``hit`` is the intersection
    point (garbage where invalid) and ``valid`` marks rows whose segments
    genuinely cross (same ±eps slack as ``segment_intersection``).
    """
    r = p2 - p1
    s = q2 - q1
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    qp = q1 - p1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (qp[..., 0] * s[..., 1] - qp[..., 1] * s[..., 0]) / denom
        u = (qp[..., 0] * r[..., 1] - qp[..., 1] * r[..., 0]) / denom
        valid = (
            (np.abs(denom) >= _EPS)
            & (t >= -_EPS) & (t <= 1.0 + _EPS)
            & (u >= -_EPS) & (u <= 1.0 + _EPS)
        )
        hit = p1 + r * t[..., None]
    return hit, valid


def _blockage_loss_db(p1: Point, p2: Point, blockers: Sequence[Segment]) -> float:
    """Total knife-edge loss from blockers crossing the sub-path ``p1p2``.

    Each blocker segment stores its own loss in ``material_loss_db``.
    """
    loss = 0.0
    for blocker in blockers:
        if segment_intersection(p1, p2, blocker.a, blocker.b) is not None:
            loss += blocker.material_loss_db
    return loss


def _los_ray(
    room: Room, tx: Point, rx: Point, blockers: Sequence[Segment]
) -> Optional[Ray]:
    if not path_is_clear(tx, rx, room.obstacles()):
        # Clutter fully blocks this LOS (e.g. desk rows); model as heavy loss
        # rather than dropping the ray — mm-wave diffracts a little.
        clutter_loss = 35.0
    else:
        clutter_loss = 0.0
    length = tx.distance_to(rx)
    loss = path_loss_db(length) + clutter_loss
    loss += _blockage_loss_db(tx, rx, blockers)
    if -loss < _MIN_RAY_GAIN_DB:
        return None
    return Ray(
        aod_deg=math.degrees(tx.angle_to(rx)),
        aoa_deg=math.degrees(rx.angle_to(tx)),
        path_length_m=length,
        loss_db=loss,
        order=0,
        via=(),
    )


class TraceEngine:
    """Batched ray tracer for a fixed (room, Tx position).

    ``trace(rx, blockers)`` returns every ray up to
    :data:`MAX_REFLECTION_ORDER` bounces and memoizes results per
    (rx, blockers) value.
    """

    def __init__(self, room: Room, tx: Point):
        self.room = room
        self.tx = tx
        self._ray_cache: OrderedDict[tuple, list[Ray]] = OrderedDict()

        reflectors = room.reflectors()
        obstacles = room.obstacles()
        self._txp = np.array([tx.x, tx.y])
        self._wall_names = [s.name for s in reflectors]
        self._wall_loss = np.array([s.material_loss_db for s in reflectors])
        if reflectors:
            self._wa = np.array([[s.a.x, s.a.y] for s in reflectors])
            self._wb = np.array([[s.b.x, s.b.y] for s in reflectors])
            self._images1 = _mirror_points(
                np.broadcast_to(self._txp, self._wa.shape), self._wa, self._wb
            )
        else:
            self._wa = np.zeros((0, 2))
            self._wb = np.zeros((0, 2))
            self._images1 = np.zeros((0, 2))
        # Which obstacle (clutter) index each reflector corresponds to, or -1.
        # Room.obstacles() is clutter only and clutter segments are the tail
        # of reflectors(), so identity maps positionally.
        n_walls = len(reflectors) - len(obstacles)
        self._obstacle_of_reflector = np.array(
            [k - n_walls if k >= n_walls else -1 for k in range(len(reflectors))],
            dtype=int,
        )
        if obstacles:
            self._oa = np.array([[s.a.x, s.a.y] for s in obstacles])
            self._ob = np.array([[s.b.x, s.b.y] for s in obstacles])
        else:
            self._oa = np.zeros((0, 2))
            self._ob = np.zeros((0, 2))

        # Ordered wall pairs (i, j), i != j, in row-major order (wall i
        # first), with the doubly-mirrored Tx image per pair.
        n = len(reflectors)
        if n >= 2:
            pi, pj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            keep = pi != pj
            self._pi = pi[keep].ravel()
            self._pj = pj[keep].ravel()
            self._images2 = _mirror_points(
                self._images1[self._pi], self._wa[self._pj], self._wb[self._pj]
            )
        else:
            self._pi = np.zeros(0, dtype=int)
            self._pj = np.zeros(0, dtype=int)
            self._images2 = np.zeros((0, 2))

    # -- clearance / blockage helpers ------------------------------------

    def _blocked_by_clutter(
        self, p1: np.ndarray, p2: np.ndarray, exclude: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """Rows whose path p1→p2 is blocked by clutter (path_is_clear logic).

        ``exclude[o]`` masks rows for which obstacle ``o`` is the reflecting
        wall itself and therefore skipped: a reflector never blocks its
        own bounce.
        """
        rows = np.broadcast_shapes(np.shape(p1), np.shape(p2))[:-1]
        blocked = np.zeros(rows, dtype=bool)
        for o in range(len(self._oa)):
            hit, valid = _intersections(p1, p2, self._oa[o], self._ob[o])
            d1 = np.hypot(hit[..., 0] - p1[..., 0], hit[..., 1] - p1[..., 1])
            d2 = np.hypot(hit[..., 0] - p2[..., 0], hit[..., 1] - p2[..., 1])
            crossing = valid & (d1 >= _ENDPOINT_TOL_M) & (d2 >= _ENDPOINT_TOL_M)
            blocked |= crossing & ~exclude[o]
        return blocked

    def _blockage_loss(
        self, p1: np.ndarray, p2: np.ndarray, blockers: Sequence[Segment]
    ) -> np.ndarray:
        """Per-row blocker loss along p1→p2, summed in blocker order."""
        rows = np.broadcast_shapes(np.shape(p1), np.shape(p2))[:-1]
        loss = np.zeros(rows)
        for b in blockers:
            ba = np.array([b.a.x, b.a.y])
            bb = np.array([b.b.x, b.b.y])
            _, valid = _intersections(p1, p2, ba, bb)
            loss = loss + b.material_loss_db * valid.astype(float)
        return loss

    def _exclusion_masks(self, wall_idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """For each obstacle, the rows where it IS the reflecting wall."""
        obs = self._obstacle_of_reflector[wall_idx]
        return tuple(obs == o for o in range(len(self._oa)))

    # -- tracing ----------------------------------------------------------

    def _first_order(
        self, rxp: np.ndarray, blockers: Sequence[Segment]
    ) -> list[Ray]:
        hit, valid = _intersections(self._images1, rxp, self._wa, self._wb)
        if not valid.any():
            return []
        idx = np.nonzero(valid)[0]
        hit = hit[idx]
        txp = self._txp
        exclude = self._exclusion_masks(idx)
        blocked = self._blocked_by_clutter(txp, hit, exclude)
        blocked |= self._blocked_by_clutter(hit, rxp, exclude)
        idx, hit = idx[~blocked], hit[~blocked]
        if idx.size == 0:
            return []
        exclude = self._exclusion_masks(idx)

        d1 = np.hypot(txp[0] - hit[:, 0], txp[1] - hit[:, 1])
        d2 = np.hypot(hit[:, 0] - rxp[0], hit[:, 1] - rxp[1])
        length = d1 + d2
        loss = _path_loss_db_array(length) + self._wall_loss[idx]
        loss = loss + self._blockage_loss(txp, hit, blockers)
        loss = loss + self._blockage_loss(hit, rxp, blockers)
        keep = -loss >= _MIN_RAY_GAIN_DB
        aod = np.degrees(np.arctan2(hit[:, 1] - txp[1], hit[:, 0] - txp[0]))
        aoa = np.degrees(np.arctan2(hit[:, 1] - rxp[1], hit[:, 0] - rxp[0]))
        return [
            Ray(
                aod_deg=float(aod[k]),
                aoa_deg=float(aoa[k]),
                path_length_m=float(length[k]),
                loss_db=float(loss[k]),
                order=1,
                via=(self._wall_names[idx[k]],),
            )
            for k in np.nonzero(keep)[0]
        ]

    def _second_order(
        self, rxp: np.ndarray, blockers: Sequence[Segment]
    ) -> list[Ray]:
        if self._pi.size == 0:
            return []
        hit2, valid2 = _intersections(
            self._images2, rxp, self._wa[self._pj], self._wb[self._pj]
        )
        rows = np.nonzero(valid2)[0]
        if rows.size == 0:
            return []
        pi, pj, hit2 = self._pi[rows], self._pj[rows], hit2[rows]
        hit1, valid1 = _intersections(
            self._images1[pi], hit2, self._wa[pi], self._wb[pi]
        )
        sel = valid1
        pi, pj, hit1, hit2 = pi[sel], pj[sel], hit1[sel], hit2[sel]
        if pi.size == 0:
            return []
        txp = self._txp
        ex_i = self._exclusion_masks(pi)
        ex_j = self._exclusion_masks(pj)
        exclude = tuple(a | b for a, b in zip(ex_i, ex_j))
        blocked = self._blocked_by_clutter(txp, hit1, exclude)
        blocked |= self._blocked_by_clutter(hit1, hit2, exclude)
        blocked |= self._blocked_by_clutter(hit2, rxp, exclude)
        ok = ~blocked
        pi, pj, hit1, hit2 = pi[ok], pj[ok], hit1[ok], hit2[ok]
        if pi.size == 0:
            return []

        da = np.hypot(txp[0] - hit1[:, 0], txp[1] - hit1[:, 1])
        db = np.hypot(hit1[:, 0] - hit2[:, 0], hit1[:, 1] - hit2[:, 1])
        dc = np.hypot(hit2[:, 0] - rxp[0], hit2[:, 1] - rxp[1])
        length = da + db + dc
        loss = (
            _path_loss_db_array(length)
            + self._wall_loss[pi]
            + self._wall_loss[pj]
        )
        loss = loss + self._blockage_loss(txp, hit1, blockers)
        loss = loss + self._blockage_loss(hit1, hit2, blockers)
        loss = loss + self._blockage_loss(hit2, rxp, blockers)
        keep = -loss >= _MIN_RAY_GAIN_DB
        aod = np.degrees(np.arctan2(hit1[:, 1] - txp[1], hit1[:, 0] - txp[0]))
        aoa = np.degrees(np.arctan2(hit2[:, 1] - rxp[1], hit2[:, 0] - rxp[0]))
        return [
            Ray(
                aod_deg=float(aod[k]),
                aoa_deg=float(aoa[k]),
                path_length_m=float(length[k]),
                loss_db=float(loss[k]),
                order=2,
                via=(self._wall_names[pi[k]], self._wall_names[pj[k]]),
            )
            for k in np.nonzero(keep)[0]
        ]

    def trace(self, rx: Point, blockers: tuple[Segment, ...] = ()) -> list[Ray]:
        """All rays Tx→``rx`` up to second order, strongest first."""
        key = ((rx.x, rx.y), _blockers_key(blockers))
        cached = self._ray_cache.get(key)
        if cached is not None:
            self._ray_cache.move_to_end(key)
            return list(cached)

        rays: list[Ray] = []
        los = _los_ray(self.room, self.tx, rx, blockers)
        if los is not None:
            rays.append(los)
        rxp = np.array([rx.x, rx.y])
        rays.extend(self._first_order(rxp, blockers))
        rays.extend(self._second_order(rxp, blockers))
        rays.sort(key=lambda r: r.loss_db)

        self._ray_cache[key] = rays
        if len(self._ray_cache) > _RAY_CACHE_SIZE:
            self._ray_cache.popitem(last=False)
        return list(rays)


_ENGINE_CACHE: OrderedDict[tuple, TraceEngine] = OrderedDict()
_ENGINE_CACHE_SIZE = 256
_RAY_CACHE_SIZE = 1024  # per-(Rx, blockers) ray lists kept by each engine


def engine_for(room: Room, tx: Point) -> TraceEngine:
    """A (memoized) :class:`TraceEngine` for this room geometry + Tx pose.

    Keyed by *value* (room signature + Tx coordinates), so rebuilding an
    identical :class:`Room` object reuses the engine and its ray cache.
    """
    key = (room_signature(room), (tx.x, tx.y))
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        engine = TraceEngine(room, tx)
        _ENGINE_CACHE[key] = engine
        if len(_ENGINE_CACHE) > _ENGINE_CACHE_SIZE:
            _ENGINE_CACHE.popitem(last=False)
    else:
        _ENGINE_CACHE.move_to_end(key)
    return engine


def trace_rays_cached(geometry: LinkGeometry) -> list[Ray]:
    """Trace all rays up to :data:`MAX_REFLECTION_ORDER` reflections,
    strongest first.

    Vectorized over walls/wall pairs and memoized at two levels:
    per-(room, Tx) precomputation and per-(Rx, blockers) results.
    """
    engine = engine_for(geometry.room, geometry.tx_position)
    return engine.trace(geometry.rx_position, geometry.blockers)


def clear_caches() -> None:
    """Drop all engines (mainly for tests and memory hygiene)."""
    _ENGINE_CACHE.clear()
