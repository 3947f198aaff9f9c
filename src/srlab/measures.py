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

`gauss_bonnet_residual` is the one scene route: only it builds region and
boundary runs. `integrate_K_dsigma`, `integrate_kn_ds`, `finite_L_gauss_bonnet`
and `stokes_consistency_gap` read its report and stay because the benchmark's
tracer hooks them by name. TestSharedGeometry's
`test_report_matches_standalone_integrals_bitwise` (tests/test_measures.py)
checks that shared rounds give the bits of separate runs.

Quadrature is composite Gauss-Legendre with a fixed summation order
(lexicographic over cells, pairwise within and across cells), so results are
bitwise reproducible. Disk and annulus regions integrate in polar parameters
with the Jacobian folded into the weights.

A report's integrals advance together in rounds (`_refine`): levels 0 and 1
of the region and of every boundary curve first, then one level per round
for the integrands still refining. A round (`_pass`) cuts each run's joined
levels into items of whole cells, one geometry each, and shares them with
the process's workers, children forked once at the first round of two or
more items and reused by every later one. A worker gets the round pickled,
with its nodes named (region or curve interval, spec, levels) rather than
sent, takes item numbers from a queue shared with the caller, builds the
nodes of each item's own cells, and replies with per-cell sums. A cell's
sum depends only on its own values, and each level's cells are summed in
cell order, so the bits are those of a serial pass. The caller then
evaluates, in serial order, every item no process finished, so the first
failing item raises its own error. The first round in a process asks
glibc to keep freed heap (`_retain_heap`), so each item reuses the pages
the one before it freed; each idle worker keeps its own, up to the 64 MiB
pad, for the life of the process. Workers see the module as it was when
they were forked.
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

# most nodes per geometry build, rounded down to whole quadrature cells
CHUNK = 8192
# processes a round of two or more items is shared by: the CPUs this
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
# freed heap glibc keeps at the top instead of returning it to the OS: an
# item frees its jets (its heap peaks at about 6 MB on the shipped scenes,
# 23 MB on a dense frame) and the next one allocates them again, which
# without the pad faults every page back in; 16 MiB still left most of the
# faults on dense
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


def region_nodes(region: Region, spec: QuadratureSpec, factor: int = 1,
                 cells: slice = slice(None)):
    """Quadrature nodes (u, v, w) in lexicographic cell order.

    `cells` picks a range of the level's cells (all by default); the nodes
    are bitwise those of the whole level at the same places. Disk and
    annulus regions are mapped from polar coordinates with the Jacobian rho
    folded into the weights.
    """
    n1 = spec.cells[0] * factor
    n2 = spec.cells[1] * factor
    # u (or rho) cell and v (or angle) cell of each picked cell; the axes
    # (cell, u node, v node) keep each cell's nodes contiguous
    i, j = np.divmod(np.arange(n1 * n2)[cells], n2)
    shape = (i.size, spec.order, spec.order)
    if region.kind == "rectangle":
        (a, b), (c, d) = region.u_interval, region.v_interval
        un, uw = _composite_axis(a, b, n1, spec.order)
        vn, vw = _composite_axis(c, d, n2, spec.order)
        u = np.broadcast_to(un[i][:, :, None], shape)
        v = np.broadcast_to(vn[j][:, None, :], shape)
        w = uw[i][:, :, None] * vw[j][:, None, :]
        return u.ravel(), v.ravel(), w.ravel()
    r1, r2 = region.radii
    rn, rw = _composite_axis(r1, r2, n1, spec.order)
    tn, tw = _composite_axis(0.0, TWO_PI, n2, spec.order)
    rho = rn[i][:, :, None]
    w = (rn * rw)[i][:, :, None] * tw[j][:, None, :]
    u = region.center[0] + rho * np.cos(tn)[j][:, None, :]
    v = region.center[1] + rho * np.sin(tn)[j][:, None, :]
    return u.ravel(), v.ravel(), w.ravel()


def curve_nodes(t0: float, t1: float, spec: QuadratureSpec, factor: int = 1,
                cells: slice = slice(None)):
    """Quadrature nodes and weights on [t0, t1], `cells` picking a range of segments."""
    nodes, weights = _composite_axis(t0, t1, spec.segments * factor, spec.order)
    return nodes[cells].ravel(), weights[cells].ravel()


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


class _Task:
    """A round's share of one refinement run: integrands on the joined nodes of `levels`.

    `build(*coords, order)` gives the geometry the integrands read. The
    run's domain is a Region or the (t0, t1) interval of a boundary curve;
    level k holds the nodes of `region_nodes` or `curve_nodes` at factor
    2^k, and the levels' node sets are laid end to end. A cell is
    `per_cell` consecutive nodes, one quadrature cell (order^2 region nodes
    or order curve nodes), so no cell straddles two levels. A plain class,
    as `_Worker` is.
    """

    def __init__(self, build, integrands: tuple, domain, spec: QuadratureSpec, levels: tuple):
        self.build = build
        self.integrands = integrands
        self.domain = domain
        self.spec = spec
        self.levels = levels

    @property
    def per_cell(self) -> int:
        return self.spec.order ** (2 if isinstance(self.domain, Region) else 1)

    def sizes(self) -> list:
        """Nodes per level, without building them."""
        spec = self.spec
        if isinstance(self.domain, Region):
            return [spec.cells[0] * spec.cells[1] * self.per_cell * 4 ** k for k in self.levels]
        return [spec.segments * spec.order * 2 ** k for k in self.levels]

    def nodes(self, level: int, cells: slice):
        """Coordinate arrays and weights of a range of one level's cells."""
        if isinstance(self.domain, Region):
            return region_nodes(self.domain, self.spec, 2 ** level, cells)
        return curve_nodes(*self.domain, self.spec, 2 ** level, cells)


def _items(tasks, chunk: int) -> list:
    """The round's items (task index, start, stop) in serial order, whole cells each.

    An item holds as many whole cells as fit in `chunk` nodes, or one cell
    when a cell is larger; it may span the end of one level and the start
    of the next.
    """
    items = []
    for t, task in enumerate(tasks):
        step = max(1, chunk // task.per_cell) * task.per_cell
        total = sum(task.sizes())
        items += [(t, lo, min(lo + step, total)) for lo in range(0, total, step)]
    return items


def _evaluate(tasks, item):
    """Per-cell weighted sums of one item's integrands, shape (integrands, cells).

    One geometry serves every integrand of the item, at the highest surface
    order they declare (`fn.order`), on the item's own cells, which are
    built here. A cell's sum reads only that cell's values, so it has the
    same bits whatever item, process or chunk size computes it.
    """
    t, lo, hi = item
    task = tasks[t]
    n, per_cell = hi - lo, task.per_cell
    parts, start = [], 0
    for level, size in zip(task.levels, task.sizes()):
        a, b = max(lo, start), min(hi, start + size)
        if a < b:
            cells = slice((a - start) // per_cell, (b - start) // per_cell)
            parts.append(task.nodes(level, cells))
        start += size
    *coords, weights = parts[0] if len(parts) == 1 else [np.concatenate(x) for x in zip(*parts)]
    geom = task.build(*coords, max(fn.order for fn in task.integrands))
    sums = np.empty((len(task.integrands), n // per_cell))
    for row, fn in zip(sums, task.integrands):
        row[:] = np.sum((np.broadcast_to(fn(geom), (n,)) * weights).reshape(-1, per_cell), axis=1)
    return sums


def _store(tasks, sums, item, block):
    t, lo, hi = item
    per_cell = tasks[t].per_cell
    sums[t][:, lo // per_cell:hi // per_cell] = block


def _pass(tasks) -> list:
    """One round: every task's integrands on its levels, as [task][level][integrand] sums.

    With workers (`_pool`) the items are shared out first (`_deal`). Then
    this process evaluates, in serial order (tasks, then levels, in order),
    every item no process finished: all of them without workers or when the
    round does not pickle, else those that failed, here or in a worker, or
    whose worker died. So the first failing item in serial order raises its
    own error at every WORKERS. A level's value sums its cells in cell order.
    """
    _retain_heap()
    items = _items(tasks, CHUNK)
    sums = [np.empty((len(task.integrands), sum(task.sizes()) // task.per_cell))
            for task in tasks]
    done = [False] * len(items)
    workers = _pool(min(WORKERS, len(items)) - 1)
    if workers:
        _deal(tasks, items, sums, done, workers)
    for i, item in enumerate(items):
        if not done[i]:
            _store(tasks, sums, item, _evaluate(tasks, item))
    out = []
    for task, cells in zip(tasks, sums):
        per_level, start = [], 0
        for size in task.sizes():
            stop = start + size // task.per_cell
            per_level.append([float(np.sum(row[start:stop])) for row in cells])
            start = stop
        out.append(per_level)
    return out


def _deal(tasks, items, sums, done, workers):
    """Share a round's items between this process and `workers`, filling `sums` and `done`.

    An item that raises here is left undone for the serial sweep. An
    exception that escapes while workers hold the round, `KeyboardInterrupt`
    and signal-raised ones included, stops the pool; the next round forks a
    new one.
    """
    try:
        job = pickle.dumps((tasks, CHUNK), pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return   # a lambda, a closure, a read-only mapping: every item runs here
    queue, feed = _QUEUE
    try:
        pending = _offer(feed, b"".join(i.to_bytes(4, "little") for i in range(1, len(items))))
        out = [worker for worker in workers if _send(worker, job)]
        i = 0
        while i is not None or pending:
            if i is not None:
                try:
                    _store(tasks, sums, items[i], _evaluate(tasks, items[i]))
                    done[i] = True
                except Exception:
                    pass   # evaluated again after the round, in serial order, and raised there
            pending = _offer(feed, pending)
            i = _take(queue)
        for worker in out:
            _collect(worker, tasks, items, sums, done)
    except BaseException:
        _stop_pool()
        raise


def _collect(worker, tasks, items, sums, done):
    """Read `worker`'s replies for the round until its end marker.

    A worker that died, before or while replying, is reaped and leaves the pool.
    """
    head = bytearray(5)
    while _move(os.readv, worker.replies, [head]):
        i, status = int.from_bytes(head[:4], "little"), head[4]
        if i == _END:
            return
        if status == 1:
            continue
        t, lo, hi = items[i]
        block = np.empty((len(tasks[t].integrands), (hi - lo) // tasks[t].per_cell))
        if status != 0 or not _move(os.readv, worker.replies, [block]):
            break
        _store(tasks, sums, items[i], block)
        done[i] = True
    _drop(worker)


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


# -- workers ------------------------------------------------------------------
#
# A worker is a child forked once and kept for the life of the process. It
# reads a round from its job pipe, an 8-byte length and a pickle of (tasks,
# chunk), then takes 4-byte item numbers from the queue, a pipe shared by
# the whole pool whose ends never block, until it finds it empty. For each
# item it writes the number and b"\0" with the per-cell sums, or b"\1" when
# the item raised, and at the end of the round the number _END. This
# process fills the queue before it sends a round; a round of more items
# than the queue holds feeds the rest as room frees, and a worker that finds
# the queue empty first leaves them to the others. Workers are forked, not
# spawned: a fresh interpreter costs more than a shipped-size round.

_END = 2 ** 32 - 1
# bytes per write to the queue: POSIX writes at most PIPE_BUF (512 or
# more) bytes to a pipe whole, so no item number is ever split
_FEED = 512


class _Worker:
    """A worker's pid and pipe ends (a plain class: a dataclass costs a millisecond at import)."""

    def __init__(self, pid: int, jobs: int, replies: int):
        self.pid = pid
        self.jobs = jobs         # write end of the job pipe
        self.replies = replies   # read end of the reply pipe


# this process's workers, and the read and write ends of their queue; a
# forked child starts with neither (`_forget_pool`). Items are dealt through
# the shared queue rather than split in advance (worker k of n taking items
# k, k + n, ...) because the processes do not run at equal speed, and the
# queue lets the faster one take more items: on a 2-vCPU host the fixed split
# ran the dense report+Stokes workload at 2.75 ops/s against 2.99.
_POOL = []
_QUEUE = []


def _pool(size: int) -> list:
    """Up to `size` workers of this process, forking the missing ones.

    None is forked without `os.fork`, with other threads running (a child
    would inherit their held locks) or once a fork fails in this call.
    """
    while len(_POOL) < size and hasattr(os, "fork") and threading.active_count() == 1:
        if not _QUEUE:
            _QUEUE.extend(os.pipe())
            for fd in _QUEUE:
                os.set_blocking(fd, False)
        jobs_r, jobs_w = os.pipe()
        replies_r, replies_w = os.pipe()
        queue = os.dup(_QUEUE[0])   # `_forget_pool` closes the pool's own in the child
        try:
            pid = os.fork()
        except OSError:
            for fd in (jobs_r, jobs_w, replies_r, replies_w, queue):
                os.close(fd)
            break
        if pid == 0:
            code = 1
            try:
                os.close(jobs_w)
                os.close(replies_r)
                _serve(jobs_r, replies_w, queue)
                code = 0
            finally:
                os._exit(code)
        for fd in (jobs_r, replies_w, queue):
            os.close(fd)
        _POOL.append(_Worker(pid, jobs_w, replies_r))
    return _POOL[:size]


def _serve(jobs: int, replies: int, queue: int):
    """A worker's loop: take and reply to each round's items, until end of file on `jobs`.

    It ignores SIGINT, which a terminal sends the whole process group, and
    leaves only through `os._exit`, so it never flushes stdio or runs atexit.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    head = bytearray(8)
    while _move(os.readv, jobs, [head]):
        job = bytearray(int.from_bytes(head, "little"))
        if not _move(os.readv, jobs, [job]):
            return
        _work(job, replies, queue)


def _work(job, replies: int, queue: int):
    """A worker's share of one round: reply to each item it takes, then send the end marker.

    A reply is the item's number and b"\\0" with its per-cell sums, or b"\\1" if it raised.
    """
    try:
        tasks, chunk = pickle.loads(job)
        items = _items(tasks, chunk)
    except Exception:
        items = []   # take nothing: the caller evaluates the round
    while items and (i := _take(queue)) is not None:
        head = i.to_bytes(4, "little")
        try:
            reply = [head + b"\0", _evaluate(tasks, items[i])]
        except Exception:
            reply = [head + b"\1"]
        _move(os.writev, replies, reply)
    _move(os.writev, replies, [_END.to_bytes(4, "little") + b"\0"])


def _take(queue: int):
    """The next item number from the queue, or None when it is empty."""
    try:
        data = os.read(queue, 4)
    except BlockingIOError:
        return None
    return int.from_bytes(data, "little") if len(data) == 4 else None


def _offer(feed: int, pending: bytes) -> bytes:
    """Write what fits of `pending` item numbers to the queue; return the rest."""
    while pending:
        try:
            done = os.write(feed, pending[:_FEED])
        except BlockingIOError:
            break
        pending = pending[done:]
    return pending


def _send(worker: _Worker, job: bytes) -> bool:
    """Hand `job` to `worker`; False, with the worker reaped, if it is gone."""
    try:
        _move(os.writev, worker.jobs, [len(job).to_bytes(8, "little"), job])
    except BrokenPipeError:
        _drop(worker)
        return False
    return True


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
    """Kill and reap every worker of this process and close the queue. Registered with atexit."""
    for worker in list(_POOL):
        _drop(worker)
    _close_queue()


def _close_queue():
    for fd in _QUEUE:
        os.close(fd)
    _QUEUE.clear()


def _forget_pool():
    """In a forked child: the parent's workers are not its own, so close their pipes.

    A worker thus holds no other worker's pipe, and each one sees end of
    file when its parent exits.
    """
    for worker in _POOL:
        os.close(worker.jobs)
        os.close(worker.replies)
    _POOL.clear()
    _close_queue()


atexit.register(_stop_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _refine(runs, spec: QuadratureSpec) -> list:
    """Refinement runs at doubling resolution until each integrand is stable.

    A run is (build, integrands, domain), its domain a Region or a curve's
    (t0, t1). All runs advance together, one `_pass` per round: levels 0
    and 1 first, since no integrand converges on one level, then one level
    per round for the integrands still refining. Each integrand keeps its
    own value, error and convergence; the result is one list per run. The
    reported error is the change under the last doubling, floored at a few
    units of rounding so it stays a usable bound even when consecutive
    levels agree bitwise.
    """
    results = [[None] * len(integrands) for _, integrands, _ in runs]
    last = [[None] * len(integrands) for _, integrands, _ in runs]
    err = [[0.0] * len(integrands) for _, integrands, _ in runs]
    levels = tuple(range(min(spec.max_refine, 1) + 1))
    while levels:
        owners, tasks = [], []
        for r, (build, integrands, domain) in enumerate(runs):
            active = [i for i, res in enumerate(results[r]) if res is None]
            if active:
                owners.append((r, active))
                tasks.append(_Task(build, tuple(integrands[i] for i in active), domain,
                                   spec, levels))
        if not tasks:
            break
        for (r, active), per_level in zip(owners, _pass(tasks)):
            for k, values in zip(levels, per_level):
                for i, value in zip(active, values):
                    if results[r][i] is not None:
                        continue
                    if last[r][i] is not None:
                        err[r][i] = abs(value - last[r][i])
                        if err[r][i] <= spec.rel_tol * max(1.0, abs(value)):
                            results[r][i] = QuadratureResult(
                                value, _floor_err(err[r][i], value), True, k)
                    last[r][i] = value
        k = levels[-1] + 1
        levels = (k,) if k <= spec.max_refine else ()
    return [[res if res is not None else
             QuadratureResult(value, _floor_err(e, value), False, spec.max_refine)
             for res, value, e in zip(*state)] for state in zip(results, last, err)]


def _floor_err(err: float, value: float) -> float:
    return max(err, 16.0 * np.finfo(float).eps * max(1.0, abs(value)))


def integrate_region(fn, region: Region, spec: QuadratureSpec) -> QuadratureResult:
    """Integrate fn(u, v) du dv over the region with refinement control."""
    run = (lambda u, v, order: (u, v), [_reads(0)(lambda uv: fn(*uv))], region)
    return _refine([run], spec)[0][0]


def integrate_curve(fn, t0: float, t1: float, spec: QuadratureSpec) -> QuadratureResult:
    """Integrate fn(t) dt over [t0, t1] with refinement control."""
    run = (lambda t, order: t, [_reads(0)(lambda t: fn(t))], (t0, t1))
    return _refine([run], spec)[0][0]


# -- densities ----------------------------------------------------------------


def _dsigma_L(geom: SurfaceGeometry, L: float):
    """Density of the surface measure under the L metric: sqrt(L + A^2) dsigma."""
    A = np.asarray(geom.A.value)
    return np.sqrt(L + A * A) * np.asarray(geom.wedge.value)


@_reads(2)
def boundary_integrand_limit(cg: cv.CurveGeometry):
    """k_n ds against dt: A e^3(gamma'), smooth through isolated tangencies."""
    return np.asarray((cg.A * cg.y).value)


# -- scene integrals ----------------------------------------------------------
#
# A scene integrand maps one item's geometry to values at its nodes: a
# SurfaceGeometry on region nodes, a CurveGeometry on boundary nodes. Only
# the L-adapted frame and its connection forms depend on L, so one geometry
# per item serves the limit integrands, the Stokes curl and every finite-L
# row. Each integrand declares the surface order it reads: 2 where A, x and
# y enter with first derivatives at most (K dsigma, the Stokes curl, every
# boundary integrand), 3 for K_L dsigma_L, whose curl of W23_L takes them to
# second derivatives. Integrands and geometry builds are module-level
# functions or partials over them, so a round can pickle them for a worker.


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
    """(1/sqrt(L)) k_n^L ds_L against dt, in the form that needs no transversality."""
    return _reads(2)(partial(_scaled_kn_ds_L, L, _root(L)))


def _scaled_kn_ds_L(L: float, root: float, cg: cv.CurveGeometry):
    return np.asarray(cv.normal_curvature_L_jets(cg, L)[0].value) / root


def _surface_geometry(model, phi: tuple, u, v, order: int) -> SurfaceGeometry:
    """The region `build`: geometry on the patch with components `phi`.

    It takes the components, not the patch, whose read-only `domain` does
    not pickle; the geometry never reads the domain. It keeps only what the
    region integrands read (`SurfaceGeometry.cut_to_region_readers`).
    """
    geom = SurfaceGeometry(model, SurfacePatch(phi), u, v, order)
    geom.cut_to_region_readers()
    return geom


def _curve_geometry(model, phi: tuple, curve, t, order: int) -> cv.CurveGeometry:
    """The boundary `build`: `_surface_geometry`'s counterpart along `curve`."""
    return cv.CurveGeometry(model, SurfacePatch(phi), curve, t, order)


def _total(start: float, results) -> float:
    """`start` plus the value of each result, added left to right."""
    for res in results:
        start += res.value
    return start


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
    boundary_part = _total(0.0, boundary)
    return FiniteLRow(
        L=float(L),
        scaled_sum=area.value + boundary_part,
        target=TWO_PI * chi / _root(L),
        area_part=area.value,
        boundary_part=boundary_part,
        converged=area.converged and all(res.converged for res in boundary),
    )


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
        region, boundary = self.curl.value, _total(0.0, self.boundary)
        return abs(region - boundary) / max(1.0, abs(region), abs(boundary))


def gauss_bonnet_residual(scene, L_values=()) -> GaussBonnetReport:
    """Residual of the limit Gauss-Bonnet identity, with optional finite-L rows.

    The residual is the area integral plus the boundary integrals, summed
    left to right in the reported order, and vanishes for correctly oriented
    scenes. After the region's domain and characteristic-point checks, one
    refinement run over the region and one along each boundary curve
    evaluate the limit integrands, the Stokes curl and every finite-L row on
    shared geometry, all of them in the same rounds.
    """
    L_values = tuple(L_values)
    area_fns = [_K_dsigma, _limit_curl] + [_K_dsigma_L(L) for L in L_values]
    curve_fns = [boundary_integrand_limit] + [_kn_ds_L(L) for L in L_values]
    ensure_region_in_domain(scene.patch, scene.region)
    scan_region_regular(scene.model, scene.patch, scene.region)
    model, phi = scene.model, scene.patch.phi
    runs = [(partial(_surface_geometry, model, phi), area_fns, scene.region)]
    runs += [(partial(_curve_geometry, model, phi, curve), curve_fns, (curve.t0, curve.t1))
             for curve in scene.boundary]
    (area, curl, *area_L), *curves = _refine(runs, scene.quadrature)
    boundary = tuple(parts[0] for parts in curves)
    rows = tuple(
        _finite_row(scene.region.chi, L, area_L[j], [parts[j + 1] for parts in curves])
        for j, L in enumerate(L_values)
    )
    return GaussBonnetReport(chi=scene.region.chi, area=area, boundary=boundary,
                             residual=_total(area.value, boundary), curl=curl,
                             finite_rows=rows)


def integrate_K_dsigma(scene) -> QuadratureResult:
    """The report's `area`; kept because the benchmark's tracer hooks it by name."""
    return gauss_bonnet_residual(scene).area


def integrate_kn_ds(scene) -> tuple:
    """The report's `boundary`; kept because the benchmark's tracer hooks it by name."""
    return gauss_bonnet_residual(scene).boundary


def finite_L_gauss_bonnet(scene, L: float) -> FiniteLRow:
    """The report's row at L; kept because the benchmark's tracer hooks it by name."""
    return gauss_bonnet_residual(scene, (L,)).finite_rows[0]


def stokes_consistency_gap(scene) -> float:
    """The report's `stokes_gap`; kept because the benchmark's tracer hooks it by name."""
    return gauss_bonnet_residual(scene).stokes_gap
