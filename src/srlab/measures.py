"""Area and length measures, region quadrature, and Gauss-Bonnet checks.

Densities against the parameter measures:

    dsigma   = (f^2 ^ f^3)(Tu, Tv) du dv        (limit area, positive)
    dsigma_L = sqrt(L + A^2) dsigma              (area under the L metric)
    ds       = |e^3(gamma')| dt                  (limit length, transverse curves)

The Gauss-Bonnet residual integrates K dsigma over a region and A e^3(gamma')
along its boundary curves; the two cancel for correctly oriented scenes
(counterclockwise outer boundary, clockwise holes, in the parameter plane).
The finite-L variant integrates (1/sqrt(L)) K_L dsigma_L and the matching
boundary term and compares against 2 pi chi / sqrt(L). Stokes' check reads
d(A e^3) off K's node sets and geometry but shares no formula code with K.

Quadrature is composite Gauss-Legendre with a fixed summation order
(lexicographic over cells, pairwise within and across cells), so results are
bitwise reproducible. Disk and annulus regions integrate in polar parameters
with the Jacobian folded into the weights.

A pass of at least two CHUNKs of nodes (the region passes; curve passes
stay smaller) is split into contiguous blocks of whole chunks, one per CPU.
The calling process evaluates the first block and hands each other one to a
worker: a child forked once, at the first such pass, and reused by every
later pass, so no heap is shared copy-on-write after that one fork. A
worker gets a pickled job, runs the same chunk loop and replies with the
raw values; one geometry is alive per process. Each node's value comes
from the same code on the same chunk whichever process computes it, and
the caller sums the whole arrays in the fixed order, so the bits are those
of a serial pass. The caller evaluates a block itself when the pass is
smaller, the host gives one CPU, other threads were running when the
workers would have been forked, the fork failed, the job does not pickle,
or the worker failed or died. The first pass in a process asks glibc to
keep freed heap (`_retain_heap`), so each chunk reuses the pages the one
before it freed; each idle worker keeps its own, up to the 64 MiB pad, for
the life of the process. Workers see the module as it was when they were
forked.
"""

import atexit
import ctypes
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import curvature as cv
from .errors import CharacteristicPointError, SceneError
from .surface import EPS_CHAR, SurfaceGeometry, SurfacePatch, characteristic_report

# nodes per geometry build
CHUNK = 8192
# processes a pass of two or more chunks is split over: the CPUs this
# process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
TWO_PI = 2.0 * math.pi
# worst-case nodes of one refinement run, summed over its levels: per region
# and per boundary curve; the shipped settings (8 x 8 cells, 64 segments,
# order 16, max_refine 3) need 1392640 and 15360
MAX_REGION_NODES = 2 ** 23
MAX_CURVE_NODES = 2 ** 20
# per-axis samples of the characteristic pre-scan grid over a region
SCAN_SAMPLES = 25
# freed heap glibc keeps at the top instead of returning it to the OS: a
# chunk frees its jets (about 7 MB on the shipped scenes, 28 MB on a dense
# frame) and the next one allocates them again, which without the pad
# faults every page back in; 16 MiB still left most of the faults on dense
TOP_PAD = 64 << 20


def _worst_case_nodes(level0: int, growth: int, max_refine: int, cap: int) -> int:
    """Nodes over levels 0..max_refine, level k holding growth^k times level 0.

    The sum stops once it passes `cap`, so a huge `max_refine` costs nothing.
    """
    level, total, k = level0, level0, 0
    while k < max_refine and total <= cap:
        level, k = growth * level, k + 1
        total += level
    return total


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre quadrature controls for regions and boundary curves."""

    order: int = 16
    cells: tuple = (8, 8)
    segments: int = 64
    rel_tol: float = 1e-8
    max_refine: int = 3

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("quadrature order must be at least 2")
        if not self.rel_tol > 0:
            raise ValueError("quadrature tolerance must be positive")
        if min(self.cells) < 1 or self.segments < 1 or self.max_refine < 0:
            raise ValueError("subdivision counts must be positive")
        region = self.cells[0] * self.cells[1] * self.order ** 2
        if _worst_case_nodes(region, 4, self.max_refine, MAX_REGION_NODES) > MAX_REGION_NODES:
            raise ValueError(
                f"region quadrature could need more than {MAX_REGION_NODES} nodes: "
                f"{self.cells[0]} x {self.cells[1]} cells of {self.order}^2 nodes, "
                f"4 times more per refinement, max_refine {self.max_refine}"
            )
        curve = self.segments * self.order
        if _worst_case_nodes(curve, 2, self.max_refine, MAX_CURVE_NODES) > MAX_CURVE_NODES:
            raise ValueError(
                f"curve quadrature could need more than {MAX_CURVE_NODES} nodes per curve: "
                f"{self.segments} segments of {self.order} nodes, "
                f"2 times more per refinement, max_refine {self.max_refine}"
            )


@dataclass(frozen=True)
class Region:
    """Subset of the parameter plane: rectangle, disk, or annulus.

    The Euler characteristic is determined by the region type: rectangles
    and disks are contractible (chi 1), annuli have chi 0.
    """

    kind: str
    u_interval: tuple = None
    v_interval: tuple = None
    center: tuple = None
    radii: tuple = None

    def __post_init__(self):
        if self.kind == "rectangle":
            if self.u_interval is None or self.v_interval is None:
                raise ValueError("rectangle region needs u and v intervals")
            (a, b), (c, d) = self.u_interval, self.v_interval
            if not (b > a and d > c):
                raise ValueError("rectangle intervals must have positive length")
        elif self.kind == "disk":
            if self.center is None or self.radii is None:
                raise ValueError("disk region needs a center and a radius")
            if not self.radii[1] > 0 or self.radii[0] != 0.0:
                raise ValueError("disk radius must be positive")
        elif self.kind == "annulus":
            if self.center is None or self.radii is None:
                raise ValueError("annulus region needs a center and two radii")
            r1, r2 = self.radii
            if not (0 < r1 <= r2):
                raise ValueError("annulus radii must satisfy 0 < inner < outer")
            if r1 == r2:
                raise ValueError("annulus has zero area: inner and outer radii are equal")
        else:
            raise ValueError(f"unknown region type: {self.kind!r}")

    @staticmethod
    def rectangle(u_interval, v_interval) -> "Region":
        return Region("rectangle", u_interval=tuple(map(float, u_interval)),
                      v_interval=tuple(map(float, v_interval)))

    @staticmethod
    def disk(center, radius) -> "Region":
        return Region("disk", center=tuple(map(float, center)),
                      radii=(0.0, float(radius)))

    @staticmethod
    def annulus(center, radii) -> "Region":
        return Region("annulus", center=tuple(map(float, center)),
                      radii=tuple(map(float, radii)))

    @property
    def chi(self) -> int:
        return 0 if self.kind == "annulus" else 1

    def bounding_box(self):
        if self.kind == "rectangle":
            return self.u_interval, self.v_interval
        (cu, cvv), r = self.center, self.radii[1]
        return (cu - r, cu + r), (cvv - r, cvv + r)

    def contains(self, u, v):
        """Pointwise membership in the closed region."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if self.kind == "rectangle":
            (a, b), (c, d) = self.u_interval, self.v_interval
            return (u >= a) & (u <= b) & (v >= c) & (v <= d)
        rho = np.hypot(u - self.center[0], v - self.center[1])
        return (rho >= self.radii[0]) & (rho <= self.radii[1])

    def boundary_distance(self, u, v):
        """Distance in the parameter plane from (u, v) to the region edge."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if self.kind == "rectangle":
            (a, b), (c, d) = self.u_interval, self.v_interval
            qu = np.abs(u - 0.5 * (a + b)) - 0.5 * (b - a)
            qv = np.abs(v - 0.5 * (c + d)) - 0.5 * (d - c)
            outside = np.hypot(np.maximum(qu, 0.0), np.maximum(qv, 0.0))
            inside = np.minimum(np.maximum(qu, qv), 0.0)
            return np.abs(outside + inside)
        rho = np.hypot(u - self.center[0], v - self.center[1])
        r1, r2 = self.radii
        if self.kind == "disk":
            return np.abs(rho - r2)
        return np.minimum(np.abs(rho - r1), np.abs(rho - r2))


def ensure_region_in_domain(patch, region: Region):
    """Check the region closure against the patch parameter domain."""
    if patch.domain is None:
        return
    (u0, u1), (v0, v1) = region.bounding_box()
    du, dv = patch.domain["u"], patch.domain["v"]
    if u0 < du[0] or u1 > du[1] or v0 < dv[0] or v1 > dv[1]:
        raise SceneError(
            f"region extends outside the surface domain "
            f"u in [{u0:g}, {u1:g}], v in [{v0:g}, {v1:g}] vs "
            f"u in [{du[0]:g}, {du[1]:g}], v in [{dv[0]:g}, {dv[1]:g}]",
            "$.region",
        )


def region_scan_grid(region: Region, samples: int = SCAN_SAMPLES):
    """Sample grid covering the closed region, boundary included."""
    if region.kind == "rectangle":
        (a, b), (c, d) = region.u_interval, region.v_interval
        uu, vv = np.meshgrid(np.linspace(a, b, samples),
                             np.linspace(c, d, samples), indexing="ij")
        return uu.ravel(), vv.ravel()
    r1, r2 = region.radii
    rho = np.linspace(r1, r2, samples)
    th = np.linspace(0.0, TWO_PI, 2 * samples, endpoint=False)
    rr, tt = np.meshgrid(rho, th, indexing="ij")
    uu = region.center[0] + (rr * np.cos(tt)).ravel()
    vv = region.center[1] + (rr * np.sin(tt)).ravel()
    return uu, vv


def scan_region_regular(model, patch, region: Region):
    """Raise if the closed region comes near a characteristic point."""
    uu, vv = region_scan_grid(region)
    require_regular(characteristic_report(model, patch, uu, vv), SCAN_SAMPLES)


def require_regular(margin, samples: int):
    """Raise if a characteristic margin on a scan grid falls below EPS_CHAR."""
    margin = float(np.min(margin))
    if margin < EPS_CHAR:
        raise CharacteristicPointError(
            f"region contains a characteristic point "
            f"(pre-scan margin {margin:.3e} on a {samples}-per-axis grid)"
        )


# -- quadrature ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _composite_axis(a: float, b: float, cells: int, order: int):
    """Nodes and weights per cell on [a, b]: arrays of shape (cells, order)."""
    x, w = _gauss_rule(order)
    edges = np.linspace(a, b, cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = centers[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes, weights


def region_nodes(region: Region, spec: QuadratureSpec, factor: int = 1):
    """Quadrature nodes (u, v, w) in lexicographic cell order.

    Disk and annulus regions are mapped from polar coordinates with the
    Jacobian rho folded into the weights.
    """
    n1 = spec.cells[0] * factor
    n2 = spec.cells[1] * factor
    shape = (n1, n2, spec.order, spec.order)
    if region.kind == "rectangle":
        (a, b), (c, d) = region.u_interval, region.v_interval
        un, uw = _composite_axis(a, b, n1, spec.order)
        vn, vw = _composite_axis(c, d, n2, spec.order)
        # axes (u cell, v cell, u node, v node): C-order ravel walks cells
        # lexicographically with each cell's nodes contiguous
        u = np.broadcast_to(un[:, None, :, None], shape)
        v = np.broadcast_to(vn[None, :, None, :], shape)
        w = uw[:, None, :, None] * vw[None, :, None, :]
        return u.ravel(), v.ravel(), np.broadcast_to(w, shape).ravel()
    r1, r2 = region.radii
    rn, rw = _composite_axis(r1, r2, n1, spec.order)
    tn, tw = _composite_axis(0.0, TWO_PI, n2, spec.order)
    rho = np.broadcast_to(rn[:, None, :, None], shape)
    th = np.broadcast_to(tn[None, :, None, :], shape)
    w = (rn * rw)[:, None, :, None] * tw[None, :, None, :]
    u = region.center[0] + rho * np.cos(th)
    v = region.center[1] + rho * np.sin(th)
    return u.ravel(), v.ravel(), np.broadcast_to(w, shape).ravel()


def curve_nodes(t0: float, t1: float, spec: QuadratureSpec, factor: int = 1):
    nodes, weights = _composite_axis(t0, t1, spec.segments * factor, spec.order)
    return nodes.ravel(), weights.ravel()


def _reduce(values, weights, per_cell: int):
    """Deterministic weighted sum: pairwise within cells, then across."""
    prods = (values * weights).reshape(-1, per_cell)
    return float(np.sum(np.sum(prods, axis=1)))


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value with its refinement-based error estimate."""

    value: float
    error: float
    converged: bool
    refinements: int


def _reads(order: int):
    """Declare the surface order an integrand reads from its geometry, as `fn.order`."""
    def mark(fn):
        fn.order = order
        return fn
    return mark


def _pass(build, integrands, coords, weights, per_cell: int) -> list:
    """Weighted sums of several integrands over one node set.

    Each CHUNK of nodes gets one geometry from `build(*coords, order)`, at
    the highest surface order the integrands declare (`fn.order`), which
    every integrand evaluates on; the geometry is released before the next
    chunk is built, so at most one is alive per process. The node set is cut
    into `_blocks`: this process fills the first, and each other block goes
    as a pickled job to one of this process's workers (`_pool`), which runs
    the same chunk loop (`_fill`) and replies with the raw values, read
    straight into this process's arrays. Blocks are taken in node order, and
    one with no worker, a job that does not pickle, a worker that reports
    failure or one that died is filled here instead, so an error surfaces as
    in a serial pass. The chunks and the summation order are those of a
    serial pass, so the sums are bitwise the same. An exception here while a
    job is out, `KeyboardInterrupt` and signal-raised ones included, stops
    the pool; the next pass forks a new one.
    """
    _retain_heap()
    total = coords[0].size
    order = max(fn.order for fn in integrands)
    blocks = _blocks(total)
    workers = _pool(len(blocks) - 1)
    outs = np.empty((len(integrands), total))
    out = {}   # block index -> the worker whose reply is unread
    try:
        for i, worker in enumerate(workers, 1):
            start, stop = blocks[i]
            try:
                job = pickle.dumps((build, integrands, [c[start:stop] for c in coords],
                                    order, CHUNK), pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, AttributeError, TypeError):
                break   # a lambda, a closure, a read-only mapping: the blocks run here
            out[i] = worker
            if not _send(worker, job):
                del out[i]
            del job   # its copy of the coordinates need not live through block 0
        for i, (start, stop) in enumerate(blocks):
            if i in out and _receive(out[i], outs, start, stop):
                del out[i]
                continue
            out.pop(i, None)
            _fill(build, integrands, coords, order, CHUNK, outs, start, stop)
    except BaseException:
        if out:
            _stop_pool()
        raise
    return [_reduce(values, weights, per_cell) for values in outs]


def _fill(build, integrands, coords, order: int, chunk: int, outs, start: int, stop: int):
    """Evaluate every integrand on nodes [start, stop) into `outs`, one geometry per chunk."""
    for lo in range(start, stop, chunk):
        sl = slice(lo, min(lo + chunk, stop))
        geom = build(*(c[sl] for c in coords), order)
        for values, fn in zip(outs, integrands):
            values[sl] = np.broadcast_to(fn(geom), (sl.stop - sl.start,))
        del geom


@lru_cache(maxsize=None)
def _retain_heap():
    """Set glibc's M_TOP_PAD to TOP_PAD, once per process, before any worker is forked.

    The setting is process-wide, workers inherit it, and it changes no
    computed value. Where the C library has no `mallopt`, nothing is set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-2, TOP_PAD)   # -2 is M_TOP_PAD


def _blocks(total: int) -> list:
    """Split [0, total) into at most WORKERS contiguous (start, stop) runs of whole chunks.

    Every block holds at least one full CHUNK, so a pass below two CHUNKs
    is a single block.
    """
    chunks = -(-total // CHUNK)
    workers = max(1, min(WORKERS, total // CHUNK))
    cuts = [min(total, CHUNK * (chunks * i // workers)) for i in range(workers + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


# -- workers ------------------------------------------------------------------
#
# A worker is a child forked once and kept for the life of the process. It
# reads jobs from one pipe, each an 8-byte length and a pickle of (build,
# integrands, the block's coordinates, order, chunk), and answers each on
# another: b"\0" and the float64 values, integrand by integrand, or b"\1"
# when the job raised. Workers are forked, not spawned: a fresh interpreter
# costs more than a shipped-size pass.


@dataclass(frozen=True)
class _Worker:
    pid: int
    jobs: int      # write end of the job pipe
    replies: int   # read end of the reply pipe


# this process's workers; a forked child starts with none (`_forget_pool`)
_POOL = []


def _pool(size: int) -> list:
    """Up to `size` workers of this process, forking the missing ones.

    None is forked without `os.fork`, with other threads running (a child
    would inherit their held locks) or once a fork fails in this call.
    """
    while len(_POOL) < size and hasattr(os, "fork") and threading.active_count() == 1:
        jobs_r, jobs_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (jobs_r, jobs_w, replies_r, replies_w):
                os.close(fd)
            break
        if pid == 0:
            code = 1
            try:
                os.close(jobs_w)
                os.close(replies_r)
                _serve(jobs_r, replies_w)
                code = 0
            finally:
                os._exit(code)
        os.close(jobs_r)
        os.close(replies_w)
        _POOL.append(_Worker(pid, jobs_w, replies_r))
    return _POOL[:size]


def _serve(jobs: int, replies: int):
    """A worker's loop: run each job's chunk loop and reply, until end of file on `jobs`.

    It ignores SIGINT, which a terminal sends the whole process group, and
    leaves only through `os._exit`, so it never flushes stdio or runs atexit.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    head = bytearray(8)
    while _move(os.readv, jobs, [head]):
        job = bytearray(int.from_bytes(head, "little"))
        if not _move(os.readv, jobs, [job]):
            return
        _move(os.writev, replies, _run(job))


def _run(job) -> list:
    """A worker's reply to one job: b"\\0" and the values, or b"\\1" if it raised."""
    try:
        build, integrands, coords, order, chunk = pickle.loads(job)
        outs = np.empty((len(integrands), coords[0].size))
        _fill(build, integrands, coords, order, chunk, outs, 0, coords[0].size)
    except Exception:
        return [b"\1"]
    return [b"\0", outs]


def _send(worker: _Worker, job: bytes) -> bool:
    """Hand `job` to `worker`; False, with the worker reaped, if it is gone."""
    try:
        _move(os.writev, worker.jobs, [len(job).to_bytes(8, "little"), job])
    except BrokenPipeError:
        _drop(worker)
        return False
    return True


def _receive(worker: _Worker, outs, start: int, stop: int) -> bool:
    """Read `worker`'s reply into outs[:, start:stop]; False if the job failed.

    A worker that died, before or while replying, is reaped and leaves the pool.
    """
    status = os.read(worker.replies, 1)
    if status == b"\0" and _move(os.readv, worker.replies, [v[start:stop] for v in outs]):
        return True
    if status != b"\1":
        _drop(worker)
    return False


def _move(io, fd: int, buffers) -> bool:
    """Run `io` (os.readv or os.writev) on `fd` until every buffer is done.

    False when a read meets end of file first.
    """
    views = [view for view in (memoryview(b).cast("B") for b in buffers) if view.nbytes]
    while views:
        done = io(fd, views)
        if not done:
            return False
        while views and done >= views[0].nbytes:
            done -= views.pop(0).nbytes
        if done:
            views[0] = views[0][done:]
    return True


def _drop(worker: _Worker):
    """Kill and reap one worker, close its pipes and take it out of the pool."""
    _POOL.remove(worker)
    os.close(worker.jobs)
    os.close(worker.replies)
    try:
        os.kill(worker.pid, signal.SIGKILL)
        os.waitpid(worker.pid, 0)
    except (ProcessLookupError, ChildProcessError):   # reaped by someone else
        pass


def _stop_pool():
    """Kill and reap every worker of this process. Registered with atexit."""
    for worker in list(_POOL):
        _drop(worker)


def _forget_pool():
    """In a forked child: the parent's workers are not its own, so close their pipes.

    A worker thus holds no other worker's pipe, and each one sees end of
    file when its parent exits.
    """
    for worker in _POOL:
        os.close(worker.jobs)
        os.close(worker.replies)
    _POOL.clear()


atexit.register(_stop_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _refine(nodes, build, integrands, spec: QuadratureSpec, per_cell: int) -> list:
    """Run passes at doubling resolution until every integrand is stable.

    `nodes(factor)` gives the coordinate arrays and weights of one pass; the
    node set and its geometry are built once per level and shared by the
    integrands still refining. Each integrand keeps its own value, error and
    convergence. The reported error is the change under the last doubling,
    floored at a few units of rounding so it stays a usable bound even when
    consecutive levels agree bitwise.
    """
    results = [None] * len(integrands)
    last = [None] * len(integrands)
    err = [0.0] * len(integrands)
    for k in range(spec.max_refine + 1):
        active = [i for i, res in enumerate(results) if res is None]
        if not active:
            break
        *coords, weights = nodes(2 ** k)
        values = _pass(build, [integrands[i] for i in active], coords, weights, per_cell)
        for i, value in zip(active, values):
            if last[i] is not None:
                err[i] = abs(value - last[i])
                if err[i] <= spec.rel_tol * max(1.0, abs(value)):
                    results[i] = QuadratureResult(value, _floor_err(err[i], value), True, k)
            last[i] = value
    return [res if res is not None else
            QuadratureResult(value, _floor_err(e, value), False, spec.max_refine)
            for res, value, e in zip(results, last, err)]


def _floor_err(err: float, value: float) -> float:
    return max(err, 16.0 * np.finfo(float).eps * max(1.0, abs(value)))


def _region_pass(build, integrands, region: Region, spec: QuadratureSpec) -> list:
    return _refine(lambda factor: region_nodes(region, spec, factor), build,
                   integrands, spec, spec.order * spec.order)


def _curve_pass(build, integrands, t0: float, t1: float, spec: QuadratureSpec) -> list:
    return _refine(lambda factor: curve_nodes(t0, t1, spec, factor), build,
                   integrands, spec, spec.order)


def integrate_region(fn, region: Region, spec: QuadratureSpec) -> QuadratureResult:
    """Integrate fn(u, v) du dv over the region with refinement control."""
    return _region_pass(lambda u, v, order: (u, v), [_reads(0)(lambda uv: fn(*uv))],
                        region, spec)[0]


def integrate_curve(fn, t0: float, t1: float, spec: QuadratureSpec) -> QuadratureResult:
    """Integrate fn(t) dt over [t0, t1] with refinement control."""
    return _curve_pass(lambda t, order: t, [_reads(0)(lambda t: fn(t))], t0, t1, spec)[0]


# -- densities ----------------------------------------------------------------


def _dsigma_L(geom: SurfaceGeometry, L: float):
    """Density of the surface measure under the L metric: sqrt(L + A^2) dsigma."""
    A = np.asarray(geom.A.value)
    return np.sqrt(L + A * A) * np.asarray(geom.wedge.value)


@_reads(2)
def boundary_integrand_limit(cg: cv.CurveGeometry):
    """k_n ds against dt: A e^3(gamma'), smooth through isolated tangencies."""
    return np.asarray((cg.A * cg.y).value)


def boundary_integrand_L(cg: cv.CurveGeometry, L: float):
    """k_n^L ds_L against dt, in the form that needs no transversality."""
    return np.asarray(cv.normal_curvature_L_jets(cg, L)[0].value)


# -- scene integrals ----------------------------------------------------------
#
# A scene integrand maps one chunk's geometry to values at its nodes: a
# SurfaceGeometry on region nodes, a CurveGeometry on boundary nodes. Only
# the L-adapted frame and its connection forms depend on L, so one geometry
# per node set serves the limit integrands, the Stokes curl and every
# finite-L row. Each integrand declares the surface order it reads: 2 where
# A, x and y enter with first derivatives at most (K dsigma, the Stokes
# curl, every boundary integrand), 3 for K_L dsigma_L, whose curl of W23_L
# takes them to second derivatives. Integrands and geometry builds are
# module-level functions or partials over them, so a pass can pickle them
# into a job for a worker.


def _root(L: float) -> float:
    if L <= 0:
        raise ValueError("the metric parameter L must be positive")
    return math.sqrt(L)


@_reads(2)
def _K_dsigma(geom: SurfaceGeometry):
    return cv.gauss_curvature_limit(geom) * np.asarray(geom.wedge.value)


@_reads(2)
def _limit_curl(geom: SurfaceGeometry):
    """d(A e^3) on du ^ dv, a plain two-form, computed apart from K = -dA(f2) - A^2."""
    return cv.limit_connection_form(geom).curl()


def _K_dsigma_L(L: float):
    """(1/sqrt(L)) K_L dsigma_L against du dv."""
    return _reads(3)(partial(_scaled_K_dsigma_L, L, _root(L)))


def _scaled_K_dsigma_L(L: float, root: float, geom: SurfaceGeometry):
    return cv.gauss_curvature_L(geom, L) * _dsigma_L(geom, L) / root


def _kn_ds_L(L: float):
    """(1/sqrt(L)) k_n^L ds_L against dt."""
    return _reads(2)(partial(_scaled_kn_ds_L, L, _root(L)))


def _scaled_kn_ds_L(L: float, root: float, cg: cv.CurveGeometry):
    return boundary_integrand_L(cg, L) / root


def _surface_geometry(model, phi: tuple, u, v, order: int) -> SurfaceGeometry:
    """The region `build`: geometry on the patch with components `phi`.

    It takes the components, not the patch, whose read-only `domain` does
    not pickle; the geometry never reads the domain.
    """
    return SurfaceGeometry(model, SurfacePatch(phi), u, v, order)


def _curve_geometry(model, phi: tuple, curve, t, order: int) -> cv.CurveGeometry:
    """The boundary `build`: `_surface_geometry`'s counterpart along `curve`."""
    return cv.CurveGeometry(model, SurfacePatch(phi), curve, t, order)


def _region_integrals(scene, integrands) -> list:
    """One refinement run over the region, one result per integrand."""
    ensure_region_in_domain(scene.patch, scene.region)
    scan_region_regular(scene.model, scene.patch, scene.region)
    build = partial(_surface_geometry, scene.model, scene.patch.phi)
    return _region_pass(build, integrands, scene.region, scene.quadrature)


def _boundary_integrals(scene, integrands) -> list:
    """One refinement run per boundary curve, one result per integrand."""
    out = []
    for curve in scene.boundary:
        build = partial(_curve_geometry, scene.model, scene.patch.phi, curve)
        out.append(_curve_pass(build, integrands, curve.t0, curve.t1, scene.quadrature))
    return out


def integrate_K_dsigma(scene) -> QuadratureResult:
    """Integral of the limit Gaussian curvature against the limit measure."""
    return _region_integrals(scene, [_K_dsigma])[0]


def integrate_kn_ds(scene) -> tuple:
    """Limit boundary integrals, one QuadratureResult per boundary curve."""
    curves = _boundary_integrals(scene, [boundary_integrand_limit])
    return tuple(res for res, in curves)


def stokes_consistency_gap(scene) -> float:
    """Stokes' check on the scene: the `stokes_gap` of its limit report."""
    return gauss_bonnet_residual(scene).stokes_gap


@dataclass(frozen=True)
class FiniteLRow:
    """One row of the finite-L Gauss-Bonnet table."""

    L: float
    scaled_sum: float
    target: float
    area_part: float
    boundary_part: float
    converged: bool

    @property
    def gap(self) -> float:
        return self.scaled_sum - self.target


def _finite_row(chi: int, L: float, area: QuadratureResult, boundary) -> FiniteLRow:
    boundary_part = 0.0
    for res in boundary:
        boundary_part += res.value
    return FiniteLRow(
        L=float(L),
        scaled_sum=area.value + boundary_part,
        target=TWO_PI * chi / _root(L),
        area_part=area.value,
        boundary_part=boundary_part,
        converged=area.converged and all(res.converged for res in boundary),
    )


def finite_L_gauss_bonnet(scene, L: float) -> FiniteLRow:
    """The scaled finite-L Gauss-Bonnet sum against 2 pi chi / sqrt(L)."""
    area_fn, curve_fn = _K_dsigma_L(L), _kn_ds_L(L)
    area = _region_integrals(scene, [area_fn])[0]
    boundary = [res for res, in _boundary_integrals(scene, [curve_fn])]
    return _finite_row(scene.region.chi, L, area, boundary)


@dataclass(frozen=True)
class GaussBonnetReport:
    """Limit Gauss-Bonnet accounting for one scene, with its Stokes check."""

    chi: int
    area: QuadratureResult
    boundary: tuple
    residual: float
    curl: QuadratureResult
    finite_rows: tuple = ()

    @property
    def stokes_gap(self) -> float:
        """|R - B| / max(1, |R|, |B|), R the `curl` integral, B the boundary sum."""
        region, boundary = self.curl.value, 0.0
        for res in self.boundary:
            boundary += res.value
        return abs(region - boundary) / max(1.0, abs(region), abs(boundary))


def gauss_bonnet_residual(scene, L_values=()) -> GaussBonnetReport:
    """Residual of the limit Gauss-Bonnet identity, with optional finite-L rows.

    The residual is the area integral plus the boundary integrals, summed
    left to right in the reported order, and vanishes for correctly oriented
    scenes. One region pass and one pass per boundary curve evaluate the
    limit integrands, the Stokes curl and every finite-L row on shared geometry.
    """
    L_values = tuple(L_values)
    area_fns = [_K_dsigma, _limit_curl] + [_K_dsigma_L(L) for L in L_values]
    curve_fns = [boundary_integrand_limit] + [_kn_ds_L(L) for L in L_values]
    area, curl, *area_L = _region_integrals(scene, area_fns)
    curves = _boundary_integrals(scene, curve_fns)
    boundary = tuple(parts[0] for parts in curves)
    residual = area.value
    for res in boundary:
        residual += res.value
    rows = tuple(
        _finite_row(scene.region.chi, L, area_L[j], [parts[j + 1] for parts in curves])
        for j, L in enumerate(L_values)
    )
    return GaussBonnetReport(chi=scene.region.chi, area=area, boundary=boundary,
                             residual=residual, curl=curl, finite_rows=rows)
