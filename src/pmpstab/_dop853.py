"""Lockstep DOP853: many independent rows advanced together, one step
attempt per row per iteration.

Every row is run by a generator that yields `Segment` requests and
receives an `Outcome` for each.  One segment is, bit for bit,

    solve_ivp(fun, (t0, t_bound), y0, method="DOP853", rtol=rtol,
              atol=atol, max_step=max_step,
              dense_output=(record == "grid"), events=armed, t_eval=times)

with every event terminal: the same step sizes, accepted states, event
roots and dense-output values (Hairer, Norsett & Wanner, Solving ODEs I,
II.5-II.6, as implemented in scipy.integrate).  `max_step` clamps the
initial step and every new step attempt, as RungeKutta._step_impl does.
A segment arms a subset of the run's events, in its own order; when two
armed events have the same root in one step, the one listed first ends
the segment, as in solve_ivp.  Whatever numpy rounds differently when
batched stays per row:

- stage sums, the solution update, the error estimates and the dense-output
  coefficients are batched `np.matmul` calls, which give the bits of
  scipy's per-row `np.dot`;
- the error norms (`ndarray.dot`) and the step factors (`**`) are per-row
  scalars;
- the right-hand side is evaluated per group of rows sharing a key, and
  each event over the rows that arm it, with a batched function equal row
  by row to the scalar one; fewer than `_SMALL` rows, or a function with
  no batched form, call the scalar function.
  The batched functions let overflow and nan pass silently, as the scalar
  function's Python arithmetic does; the rest of the step arithmetic runs
  under the caller's numpy error settings, as in solve_ivp;
- events are located per row on the step's interpolant with `brentq`,
  a port of scipy's Brent solver that gives its iterates and root.

The tableau and the root finder live here, so the engine imports neither
scipy.integrate nor scipy.optimize.

A row whose right-hand side, event function or generator raises leaves with
that exception as its result, and one whose right-hand side is not finite
at a segment's start with a ValueError; the other rows go on.  Time runs
forwards: a segment needs t_bound > t0.

A segment can record samples into the row's `Samples` store, by its
`record` mode:

- "steps": solve_ivp's sol.t and sol.y without t_eval: t0 and every
  accepted step point, the last one replaced by the root of a terminal
  event and the interpolant there.
- "times": solve_ivp's sol.t and sol.y with t_eval = `times`: each time up
  to the segment's end, evaluated by the dense output of the step that
  holds it.  As in solve_ivp without dense output, the dense-output
  coefficients are computed only on the steps that hold a record time or
  an active event.
- "grid": np.union1d of the step points and
  np.arange(floor(t0/grid_step)*grid_step + grid_step, t_end, grid_step),
  minus every time at most `min_gap` (>= 0) after its predecessor.  The
  predecessor of the first is the row's last grid candidate of an earlier
  segment, so a segment that starts within `min_gap` of where the row's
  last one ended drops its own start.  Each time is evaluated by the
  dense output of the step that ends at or after it, as `OdeSolution`
  does.  Batched passes per iteration, one per group of rows with at
  most `_GRID_GROUP` samples between them, find the times of every row,
  each with the bits of the arange entry (g0, g0 + step, then
  g0 + i * delta).  The length of the arange depends on t_end, which is
  known only at the last step; the samples can differ from the union
  above only if an earlier step ends within a few ulps of t_end.

Each committed step puts its samples straight into the row's store; the
interpolated samples of the "times" rows, and of each group of "grid"
rows, are evaluated together, then put one run per row.  A store of a
page or more holds its arrays in their own anonymous maps (`empty`):
rows it reserves take no memory until they are written, and its pages go
back to the system as soon as nothing refers to it.  The engine drops a
row's store when the row finishes; an outcome or a manifold branch that
views it keeps it until it lets go.
"""

from __future__ import annotations

import bisect
import math
import mmap
import warnings
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

__all__ = ["Segment", "Outcome", "Samples", "run", "empty", "brentq"]


def _sparse(shape: tuple, rows: Sequence[dict]) -> np.ndarray:
    """A zero array of `shape` with rows[s][j] at [s, j]."""
    out = np.zeros(shape)
    for s, row in enumerate(rows):
        for j, v in row.items():
            out[s, j] = v
    return out


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5, and
# Hairer's dop853.f), with the decimals scipy.integrate's
# dop853_coefficients writes: the stage nodes C, the stage weights A (row
# s holds the nonzero A[s, j], j < s), the solution weights B, the error
# weights E3 and E5 and the dense-output weights D.  Rows 12 to 15 of A
# are the extra stages of the dense output.
N_STAGES = 12                   # K row 12 holds f_new
N_STAGES_EXTENDED = 16          # with the dense-output stages
INTERPOLATOR_POWER = 7          # dense-output coefficients

C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])

A = _sparse((N_STAGES_EXTENDED, N_STAGES_EXTENDED), (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209, 4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1, 8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674, 8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566, 6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227, 8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206, 6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
))

B = A[N_STAGES, :N_STAGES]

E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                   0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]

E5 = _sparse((1, N_STAGES + 1), ({
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1},))[0]

# the first three dense-output coefficients come from the step's ends
D = _sparse((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED), (
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
))

_NS, _NX, _POWER = N_STAGES, N_STAGES_EXTENDED, INTERPOLATOR_POWER
_A = [np.ascontiguousarray(A[s, :s]) for s in range(_NX)]

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
_ERR_EXP = -1 / (7 + 1)                # the error estimator has order 7
_EPS = float(np.finfo(float).eps)
_ROOT_TOL = 4 * _EPS
_TOO_SMALL = "Required step size is less than spacing between numbers."
# `apply`: groups with fewer rows call the scalar function row by row.
# Per call the row loop and one batched call cost the same at about 10
# rows for the double integrator's flow and 25 for the pendulum's (2-core
# Xeon, numpy 2.4); whole manifold builds take the same time with 8 and
# with 16.
_SMALL = 16
# `commit`: the "grid" rows of one step are sampled in consecutive groups of
# at most this many estimated samples (a single row may exceed it), so that
# the few long steps of a double-integrator build (up to 204k samples in
# one step at N = 512) do not gather all their temporaries at once; every
# step of the pendulum build (at most 5.3k samples) is one group.
_GRID_GROUP = 8192


def empty(shape) -> np.ndarray:
    """np.empty(shape) of floats.  An array of a page or more lives in its
    own private anonymous map: freeing the array gives its pages back to
    the system at once, and pages that are never written never become
    resident.  The allocator keeps freed heap memory for reuse instead,
    and large arrays that come later do not reuse the small freed pieces,
    so a build whose stores came from the heap ended with them resident
    beside the manifold that replaced them."""
    nbytes = 8 * int(np.prod(shape))
    if nbytes < mmap.PAGESIZE:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE),
                         dtype=float).reshape(shape)


@dataclass(frozen=True)
class Segment:
    """One solver run requested by a row's generator.  `key` selects the
    right-hand side, `events` lists the indices of the run's events the
    segment arms (None: all, in order), `directions` holds one direction
    per armed event as in solve_ivp, and `record` is None, "steps",
    "times" (at `times`) or "grid"."""
    t0: float
    y0: np.ndarray
    t_bound: float
    key: Hashable
    directions: tuple[float, ...] = ()
    record: str | None = None
    events: tuple[int, ...] | None = None
    times: Sequence[float] | None = None


@dataclass(frozen=True)
class Outcome:
    """The end of a segment as solve_ivp's sol.t[-1] and sol.y[:, -1]
    without t_eval.  `event` is the run's index of the terminal event
    (None if there was none); then t is its t_events entry.  `message` is
    set when the solver failed.  `samples` is the row's store."""
    t: float
    y: np.ndarray
    event: int | None
    message: str | None
    samples: "Samples"

    @property
    def success(self) -> bool:
        return self.message is None


class Samples:
    """Growable sample store of one row: times t[:count], states y[:count].

    Both arrays come from `empty`, so a store of a page or more holds its
    own maps: the rows reserved beyond `count` take no memory until they
    are written, and the old arrays of a regrown store, or the store of a
    row that is finished and no longer viewed, go back to the system when
    they are freed."""

    __slots__ = ("t", "y", "count")

    def __init__(self, d: int):
        self.t = empty(0)
        self.y = empty((0, d))
        self.count = 0

    def reserve(self, extra: int) -> None:
        need = self.count + extra
        if need > len(self.t):
            cap = max(need, len(self.t) + len(self.t) // 2)
            t, y = empty(cap), empty((cap, self.y.shape[1]))
            t[:self.count] = self.t[:self.count]
            y[:self.count] = self.y[:self.count]
            self.t, self.y = t, y

    def put(self, t, y) -> None:
        k = len(t)
        self.reserve(k)
        self.t[self.count:self.count + k] = t
        self.y[self.count:self.count + k] = y
        self.count += k

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored samples as copies (t, y), emptying the store."""
        k, self.count = self.count, 0
        return self.t[:k].copy(), self.y[:k].copy()


class _Row:
    """One row: its generator and segment, the solver's scalar state as Python
    floats (scipy's float64 scalars round the same), and the sample grid
    state; `prev`, the row's last grid candidate, lives across its
    segments.  The row's y and f live in the lockstep arrays."""

    __slots__ = ("index", "gen", "seg", "samples", "t", "h_abs", "tb",
                 "rejected", "armed", "g", "kid", "first", "prev", "gi",
                 "gstart", "gdelta", "times", "ti")

    def __init__(self, index, gen):
        self.index = index
        self.gen = gen
        self.samples = None
        self.prev = -math.inf


def _norm(v: np.ndarray) -> float:
    """scipy's RMS norm, np.linalg.norm(v) / v.size ** 0.5."""
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def check_finite(f0: np.ndarray, t0: float) -> None:
    """Raise ValueError naming t0 when the right-hand side value f0 at t0
    has an inf or nan entry."""
    if not np.isfinite(f0).all():
        raise ValueError(f"the right-hand side is not finite at t = {t0!r}")


def _interp(F: list, y_old: list, t_old: float, h: float, t: float) -> list:
    """Dop853DenseOutput at one time, in Python floats, operation by
    operation as numpy does it."""
    x = (t - t_old) / h
    x1 = 1 - x
    out = []
    for i, yo in enumerate(y_old):
        v = (0.0 + F[6][i]) * x
        v = (v + F[5][i]) * x1
        v = (v + F[4][i]) * x
        v = (v + F[3][i]) * x1
        v = (v + F[2][i]) * x
        v = (v + F[1][i]) * x1
        v = (v + F[0][i]) * x
        out.append(v + yo)
    return out


def _interp_rows(F, at, y_old, t_old, h, t) -> np.ndarray:
    """Dop853DenseOutput at times t (P,), each with its own coefficients
    F[at] (F is (R, 7, d), at (P,)), y_old (P, d), t_old (P,) and h (P,).
    F is gathered one coefficient at a time, to keep the temporaries
    small."""
    x = ((t - t_old) / h)[:, None]
    y = np.zeros(y_old.shape)
    for i in range(_POWER):
        y += F[at, _POWER - 1 - i]
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


class _Lockstep:
    """The state of one `run`: the rows still going, their y and f as
    (R, d) arrays, and one stage work array reused by every attempt."""

    def __init__(self, rhs, events, rtol, atol, max_step, grid_step,
                 min_gap):
        self.rhs = rhs
        self.events = list(events)
        self.all_events = tuple(range(len(self.events)))
        self.rtol, self.atol, self.max_step = rtol, atol, max_step
        self.grid_step, self.min_gap = grid_step, min_gap
        self.keys: dict = {}
        self.funcs: list = []

    # ----------------------------------------------------- evaluations

    def apply(self, fns, T, Y, sel, pos, out, dead):
        """out[sel] = fn(T[sel], Y[sel]) (all rows when sel is None), with
        fns = (scalar, batch); `pos` maps the rows of Y to lockstep
        positions, and a row that raises is put in `dead`.  A batch of None
        means that there is no batched form."""
        batch = fns[1]
        if batch is not None and (len(Y) if sel is None
                                  else len(sel)) >= _SMALL:
            try:
                if sel is None:
                    out[:] = batch(T, Y)
                else:
                    out[sel] = batch(T[sel], Y[sel])
                return
            except Exception:
                pass    # find the rows that raise, one by one
        scalar, tl = fns[0], T.tolist()
        for i in (range(len(Y)) if sel is None else sel.tolist()):
            if dead and pos[i] in dead:
                out[i] = 0.0
                continue
            try:
                out[i] = scalar(tl[i], Y[i])
            except Exception as exc:
                dead[pos[i]] = exc
                out[i] = 0.0

    def groups(self, kids: list) -> list:
        """(functions, rows) per right-hand side key; rows None for all."""
        kinds = set(kids)
        if len(kinds) == 1:
            return [(self.funcs[kinds.pop()], None)]
        kids = np.array(kids)
        return [(self.funcs[k], np.flatnonzero(kids == k))
                for k in sorted(kinds)]

    def eval_rhs(self, T, Y, groups, pos, dead, out):
        for fns, sel in groups:
            self.apply(fns, T, Y, sel, pos, out, dead)

    # -------------------------------------------------- segment starts

    def start(self, row: _Row, seg: Segment):
        """Solver set-up of one segment: f0, scipy's select_initial_step
        and the event values at the start; returns (y0, f0)."""
        y0 = np.asarray(seg.y0, dtype=float)
        if y0.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` "
                             "must be finite.")
        armed = (self.all_events if seg.events is None
                 else tuple(seg.events))
        if not set(armed) <= set(self.all_events):
            raise ValueError("a segment can only arm the run's events")
        if len(seg.directions) != len(armed):
            raise ValueError("a segment needs one direction per event")
        t0, tb = float(seg.t0), float(seg.t_bound)
        if not tb > t0:
            raise ValueError("a segment needs t_bound > t0")
        if seg.record not in (None, "steps", "times", "grid"):
            raise ValueError(f"unknown record {seg.record!r}")
        if (seg.times is not None) != (seg.record == "times"):
            raise ValueError('record "times" and `times` go together')
        if seg.record == "times":
            times = np.asarray(seg.times, dtype=float)
            if times.ndim != 1:
                raise ValueError("`t_eval` must be 1-dimensional.")
            if np.any(times < t0) or np.any(times > tb):
                raise ValueError("Values in `t_eval` are not within "
                                 "`t_span`.")
            if np.any(np.diff(times) <= 0):
                raise ValueError("Values in `t_eval` are not properly "
                                 "sorted.")
        kid = self.keys.get(seg.key)
        if kid is None:
            kid = self.keys[seg.key] = len(self.funcs)
            self.funcs.append(self.rhs(seg.key))
        fun = self.funcs[kid][0]
        f0 = np.asarray(fun(t0, y0), dtype=float)
        # with an f0 that is not finite, or too large to scale, h0 below
        # is 0 and d2 divides by it
        check_finite(f0, t0)
        interval = tb - t0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _norm(y0 / scale)
        try:
            with np.errstate(over="raise"):
                d1 = _norm(f0 / scale)
        except FloatingPointError:
            raise ValueError(f"the right-hand side is not finite at t = "
                             f"{t0!r} in the scale of the tolerances"
                             ) from None
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = np.asarray(fun(t0 + h0, y0 + h0 * f0), dtype=float)
        d2 = _norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        row.h_abs = min(100 * h0, h1, interval, self.max_step)
        row.armed = armed
        row.g = [float(self.events[j][0](t0, y0)) for j in armed]
        if row.samples is None:
            row.samples = Samples(len(y0))
        row.seg, row.t, row.tb, row.kid = seg, t0, tb, kid
        row.rejected, row.first = False, True
        # the two reserves size a store once per segment, so that it does
        # not regrow as the samples come in
        if seg.record == "steps":
            row.samples.put([t0], y0[None])
        elif seg.record == "times":
            row.times, row.ti = times.tolist(), 0
            row.samples.reserve(len(times))
        elif seg.record == "grid":
            step = self.grid_step
            row.gstart = math.floor(t0 / step) * step + step
            row.gdelta = (row.gstart + step) - row.gstart
            row.gi = 0
            row.samples.reserve(int(1.25 * interval / step) + 64)
        return y0, f0

    def finish(self, row: _Row, result) -> None:
        """End a row with `result` and drop the row's sample store at once,
        so that rows ending together do not hold their stores while the
        other rows go on.  A store that the result still views, as a
        manifold branch does, stays alive with the result."""
        self.results[row.index] = result
        row.gen.close()
        row.samples = None

    def handover(self, row: _Row, outcome: Outcome | None):
        """Give `outcome` to the row's generator (None: start it) and set up
        the segment it asks for; (y0, f0), or None once the row is
        finished."""
        try:
            seg = (next(row.gen) if outcome is None
                   else row.gen.send(outcome))
        except StopIteration as stop:
            self.finish(row, stop.value)
            return None
        except Exception as exc:
            self.finish(row, exc)
            return None
        try:
            return self.start(row, seg)
        except Exception as exc:
            self.finish(row, exc)
            return None

    def settle(self, ended: dict, dead: dict) -> None:
        """Drop dead rows, hand finished segments to their generators and
        compact the arrays to the rows that go on."""
        if not (ended or dead):
            return
        keep = [True] * len(self.rows)
        for p, exc in dead.items():
            self.finish(self.rows[p], exc)
            keep[p] = False
        for p in list(ended):
            outcome = ended.pop(p)    # the outcome refers to the store
            if p in dead:
                continue
            got = self.handover(self.rows[p], outcome)
            if got is None:
                keep[p] = False
            else:
                self.y[p], self.f[p] = got
        if not all(keep):
            self.rows = [r for r, k in zip(self.rows, keep) if k]
            self.y, self.f = self.y[keep], self.f[keep]

    # -------------------------------------------------------- the loop

    def run(self, gens) -> list:
        self.results = [None] * len(gens)
        self.rows, starts = [], []
        for index, gen in enumerate(gens):
            row = _Row(index, gen)
            got = self.handover(row, None)
            if got is not None:
                self.rows.append(row)
                starts.append(got)
        if not self.rows:
            return self.results
        self.y = np.array([y0 for y0, _ in starts])
        self.f = np.array([f0 for _, f0 in starts])
        # stage work arrays: all rows, and the accepted rows' copy for
        # the dense-output stages
        self.K_work = np.empty((len(starts), _NX, self.y.shape[1]))
        self.K_dense = np.empty_like(self.K_work)
        while self.rows:
            self.settle(*self.attempt())
        return self.results

    def attempt(self) -> tuple[dict, dict]:
        """One step attempt of every row, as RungeKutta._step_impl; returns
        the segments that ended and the rows that raised, by position."""
        rows, y = self.rows, self.y
        na, d = y.shape
        pos = range(na)
        dead: dict[int, BaseException] = {}
        small, T, TN, H = [], [], [], []
        max_step = self.max_step
        for p, r in enumerate(rows):
            t = r.t
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            if not r.rejected:
                if r.h_abs > max_step:
                    r.h_abs = max_step
                elif r.h_abs < min_step:
                    r.h_abs = min_step
            if r.h_abs < min_step:
                small.append(p)
            t_new = t + r.h_abs
            if t_new > r.tb:
                t_new = r.tb
            T.append(t)
            TN.append(t_new)
            H.append(t_new - t)
        if small:
            return {p: Outcome(rows[p].t, y[p].copy(), None, _TOO_SMALL,
                               rows[p].samples) for p in small}, dead
        t, h = np.array(T), np.array(H)
        hc = h[:, None]
        tc = t[:, None] + C * hc        # the stage times t + c*h
        K = self.K_work[:na]
        KT = K.transpose(0, 2, 1)
        groups = self.groups([r.kid for r in rows])
        K[:, 0] = self.f
        for s in range(1, _NS):
            dy = np.matmul(KT[:, :, :s], _A[s]) * hc
            self.eval_rhs(tc[:, s], y + dy, groups, pos, dead, K[:, s])
        y_new = y + hc * np.matmul(KT[:, :, :_NS], B)
        self.eval_rhs(t + h, y_new, groups, pos, dead, K[:, _NS])
        f_new = K[:, _NS].copy()
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err5 = np.matmul(KT[:, :, :_NS + 1], E5) / scale
        err3 = np.matmul(KT[:, :, :_NS + 1], E3) / scale

        # accept or reject, in per-row scalars
        accepted = []
        for p, r in enumerate(rows):
            if p in dead:
                continue
            e5, e3 = err5[p], err3[p]
            n5 = math.sqrt(e5.dot(e5)) ** 2
            n3 = math.sqrt(e3.dot(e3)) ** 2
            h_abs = H[p]
            if n5 == 0 and n3 == 0:
                err = 0.0
            else:
                err = h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * d)
            if err < 1:
                if err == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * err ** _ERR_EXP)
                if r.rejected:
                    factor = min(1, factor)
                r.h_abs = h_abs * factor
                r.rejected = False
                accepted.append(p)
            else:
                r.h_abs = h_abs * max(MIN_FACTOR, SAFETY * err ** _ERR_EXP)
                r.rejected = True
        ended: dict[int, Outcome] = {}
        if accepted:
            self.commit(accepted, TN, y_new, f_new, h, tc, ended, dead)
        return ended, dead

    def dense_coefficients(self, sel, tc, y_old, f_old, y_new, f_new, h,
                           dead):
        """The 7 Dop853DenseOutput coefficients of the rows at positions
        `sel` (a list), after their three extra stages; tc holds their
        stage times."""
        every = len(sel) == len(self.rows)
        K = self.K_work[:len(sel)]
        if not every:
            K = np.take(self.K_work, sel, axis=0, out=self.K_dense[:len(sel)])
        KT = K.transpose(0, 2, 1)
        hc = h[:, None]
        groups = self.groups([self.rows[p].kid for p in sel])
        for s in range(_NS + 1, _NX):
            dy = np.matmul(KT[:, :, :s], _A[s]) * hc
            self.eval_rhs(tc[:, s], y_old + dy, groups, sel, dead, K[:, s])
        F = np.empty((len(sel), _POWER, K.shape[2]))
        delta_y = y_new - y_old
        F[:, 0] = delta_y
        F[:, 1] = hc * f_old - delta_y
        F[:, 2] = 2 * delta_y - hc * (f_new + f_old)
        F[:, 3:] = h[:, None, None] * np.matmul(D, K)
        return F

    def commit(self, acc, TN, y_new, f_new, h, tc, ended, dead) -> None:
        """Accepted steps of the rows at positions `acc`: dense output,
        events, samples and segment ends, in solve_ivp's order."""
        rows = [self.rows[p] for p in acc]
        y_old, f_old = self.y, self.f
        if len(acc) == len(self.rows):
            self.y, self.f = y_new, f_new
            ya, fa = y_new, f_new
        else:
            y_old, f_old, tc, h = y_old[acc], f_old[acc], tc[acc], h[acc]
            ya, fa = y_new[acc], f_new[acc]
            self.y[acc], self.f[acc] = ya, fa
        to_list = [r.t for r in rows]
        ta_list = [TN[p] for p in acc]
        for r, ta in zip(rows, ta_list):
            r.t = ta
        active = [()] * len(acc)
        if self.events:
            active = self.active_events(rows, acc, ta_list, ya, dead)
        # the dense output of every step of a grid record, else of the steps
        # with an active event or a due record time
        need = [i for i, (r, act) in enumerate(zip(rows, active))
                if act or r.seg.record == "grid" or r.seg.record == "times"
                and r.ti < len(r.times) and r.times[r.ti] <= ta_list[i]]
        F = None
        if len(need) == len(acc):
            F = self.dense_coefficients(acc, tc, y_old, f_old, ya, fa, h, dead)
        elif need:
            F = np.empty((len(acc), _POWER, ya.shape[1]))
            F[need] = self.dense_coefficients(
                [acc[i] for i in need], tc[need], y_old[need], f_old[need],
                ya[need], fa[need], h[need], dead)
        runs, times_t = [], []      # (i, sample count) and times of "times"
        grid, grid_b, first, last = [], [], [], []  # "grid" record steps
        for i, (p, r) in enumerate(zip(acc, rows)):
            if p in dead:
                continue
            t_old = to_list[i]
            stop = b = ta_list[i]
            y_end = ya[i]
            record = r.seg.record
            if active[i]:
                try:
                    e, root, y_end = self.locate(F[i], y_old[i], t_old, b,
                                                 active[i])
                except Exception as exc:
                    dead[p] = exc
                    continue
                stop = b = root
                if record == "grid" and not r.first and root == t_old:
                    # with dense output, solve_ivp drops the step whose
                    # terminal root repeats the previous step point
                    y_end, b = y_old[i].copy(), None
                ended[p] = Outcome(root, y_end, e, None, r.samples)
            elif b >= r.tb:
                ended[p] = Outcome(b, ya[i].copy(), None, None, r.samples)
            if record == "times":
                j = bisect.bisect_right(r.times, stop, r.ti)
                if j > r.ti:
                    runs.append((i, j - r.ti))
                    times_t += r.times[r.ti:j]
                    r.ti = j
            elif b is None or record is None:
                pass
            elif record == "steps":
                r.samples.put([b], y_end[None])
            else:
                grid.append(i)
                grid_b.append(b)
                first.append(r.first)
                last.append(p in ended)
            r.first = False
        if not (grid or runs):
            return
        t_from, t_to = np.array(to_list), np.array(ta_list)
        if runs:
            self.put_runs(rows, runs, np.array(times_t), F, y_old, t_from,
                          t_to)
        if not grid:
            return
        grid_b, first, last = np.array(grid_b), np.array(first), np.array(last)
        # a row's estimate: its grid times in the step, and b
        cuts = _group_cuts((grid_b - t_from[grid]) / self.grid_step + 1,
                           _GRID_GROUP)
        for lo, hi in zip(cuts, cuts[1:]):
            g = grid[lo:hi]
            counts, grid_t = self.step_times(
                [rows[i] for i in g], t_from[g], grid_b[lo:hi], first[lo:hi],
                last[lo:hi])
            self.put_runs(rows, list(zip(g, counts)), grid_t, F, y_old, t_from,
                          t_to)

    def put_runs(self, rows, runs, st, F, y_old, t_old, t_new) -> None:
        """Evaluate the dense output of the steps (t_old, t_new] at the
        sample times st, one run (i, count) of them per row, in time order,
        and put each run into rows[i]'s store."""
        at = np.repeat(*zip(*runs))
        t0 = t_old[at]
        Y = _interp_rows(F, at, y_old[at], t0, t_new[at] - t0, st)
        lo = 0
        for i, count in runs:
            rows[i].samples.put(st[lo:lo + count], Y[lo:lo + count])
            lo += count

    def active_events(self, rows, acc, ta_list, ya, dead) -> list:
        """The events of each accepted row that find_active_events reports
        between its last two step points, as run indices in the row's
        armed order; updates the rows' event values."""
        ta = np.array(ta_list)
        col = np.empty(len(acc))
        # the rows that arm each event; None: every row
        sels: dict = dict.fromkeys(self.all_events)
        if not all(r.armed is self.all_events for r in rows):
            sels = {}
            for i, r in enumerate(rows):
                for j in r.armed:
                    sels.setdefault(j, []).append(i)
            sels = {j: np.array(sel) for j, sel in sels.items()}
        values = {}     # per event, its values at the rows that arm it
        for j, sel in sels.items():
            self.apply(self.events[j], ta, ya, sel, acc, col, dead)
            values[j] = col.tolist()
        active = []
        for i, r in enumerate(rows):
            act = []
            gn = [values[j][i] for j in r.armed]
            # find_active_events' sign test
            for j, g0, g1, dr in zip(r.armed, r.g, gn, r.seg.directions):
                up = g0 <= 0 and g1 >= 0
                down = g0 >= 0 and g1 <= 0
                if (up and dr > 0 or down and dr < 0
                        or (up or down) and dr == 0):
                    act.append(j)
            active.append(act)
            r.g = gn
        return active

    def locate(self, F, y_old, t_old, t_new, active):
        """solve_ivp's handle_events on one step: the Brent root (`brentq`)
        of every active event on the step's interpolant, which the event
        function receives as an array; returns the event index, root and
        state of the earliest."""
        Fl, yl, h = F.tolist(), y_old.tolist(), t_new - t_old
        roots = []
        for e in active:
            ev = self.events[e][0]
            roots.append((brentq(
                lambda tt: ev(tt, np.array(_interp(Fl, yl, t_old, h, tt))),
                t_old, t_new), e))
        # the earliest; ties go to the event armed first
        root, e = min(roots, key=lambda r: r[0])
        return e, root, np.array(_interp(Fl, yl, t_old, h, root))

    # --------------------------------------------------------- sampling

    def step_times(self, rows: list, t_old: np.ndarray, b: np.ndarray,
                   first: np.ndarray, last: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The sample times of the steps (t_old, b] of "grid" `rows` in one
        pass: t_old on a segment's first step, the grid times up to b (on
        its last step, the arange's whole count of them), then b, in time
        order per row, minus every time at most min_gap after its
        predecessor (row.prev before the first).  Returns (counts, times):
        the list of each row's number of times, and the times, row after
        row."""
        step = self.grid_step
        g0 = np.array([r.gstart for r in rows])
        gd = np.array([r.gdelta for r in rows])
        gi = np.array([r.gi for r in rows], dtype=int)
        # j: the last grid index with a time <= b, from an estimate; the
        # grid times rise with the index
        j = np.maximum(np.floor((b - g0) / gd).astype(int), gi - 1)
        while (down := (j >= gi) & (_grid(g0, gd, step, j) > b)).any():
            j -= down
        while (up := _grid(g0, gd, step, j + 1) <= b).any():
            j += up
        # a segment ends at b: its arange has ceil((b - g0) / step) times,
        # the last possibly a few ulps past b
        count = np.maximum(np.ceil((b - g0) / step), 0).astype(int)
        j = np.where(last, np.maximum(count, gi) - 1, j)
        # t_old, the grid times gi..j, then b; a b equal to a grid time is
        # dropped below, as 0 <= min_gap
        n = j + 1 - gi
        size = first + n + 1
        owner = np.repeat(np.arange(len(rows)), size)
        start = np.cumsum(size) - size
        k = np.arange(len(owner)) - start[owner] - first[owner]
        times = np.where(k < 0, t_old[owner],
                         np.where(k < n[owner],
                                  _grid(g0[owner], gd[owner], step,
                                        gi[owner] + k), b[owner]))
        times = times[np.lexsort((times, owner))]
        before = np.empty_like(times)
        before[1:] = times[:-1]
        before[start] = [r.prev for r in rows]
        keep = times - before > self.min_gap
        for r, i, prev in zip(rows, (j + 1).tolist(),
                              times[start + size - 1].tolist()):
            r.gi, r.prev = i, prev
        return np.add.reduceat(keep, start).tolist(), times[keep]


def _group_cuts(sizes: np.ndarray, limit: float) -> list:
    """Boundaries [0, ..., len(sizes)] of consecutive groups, each of sizes
    summing to at most `limit`, or of one size alone."""
    if sizes.sum() <= limit:
        return [0, len(sizes)]
    cuts, total = [0], 0.0
    for i, size in enumerate(sizes.tolist()):
        if total + size > limit and i > cuts[-1]:
            cuts.append(i)
            total = 0.0
        total += size
    return cuts + [len(sizes)]


def _value(f, x: float) -> float:
    """f(x) as a float, with brentq's ValueError when it is nan."""
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver "
                         "cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float = _ROOT_TOL, rtol: float = _ROOT_TOL,
           maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by
    Brent's method (Brent 1973, ch. 4): scipy.optimize.brentq's C loop
    (brentq.c) operation by operation, so the same iterates and root, with
    its errors: ValueError for a nan value of f or for f(a) and f(b) of
    one sign, and RuntimeError after `maxiter` iterations."""
    xpre, xcur = a, b
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # [xcur, xblk] brackets the root, and xcur is the better end
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C divides to an inf or a nan, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _grid(g0, gd, step, i):
    """np.arange(g0, ., step)[i]: g0, g0 + step, then g0 + i * gd."""
    return np.where(i > 1, g0 + i * gd, np.where(i == 1, g0 + step, g0))


def run(gens: Sequence, rhs: Callable, events: Sequence = (), *,
        rtol: float, atol: float, max_step: float = math.inf,
        grid_step: float = math.inf, min_gap: float = 0.0) -> list:
    """Run every generator to its end, all rows in lockstep.

    `rhs(key)` returns the (scalar, batch) pair of one right-hand side:
    scalar(t, y) -> sequence of d values for one state, batch(T, Y) ->
    (R, d) array for R states, equal row by row, or None.  `events` holds
    (scalar, batch) pairs of the same kind with one value per state.
    "grid" segments sample every `grid_step` and keep dense output on
    every step; other segments compute it only where solve_ivp without
    dense output does.  rtol below 100 eps is raised to it with a warning,
    as solve_ivp does.
    Returns, per generator, the value it returned or the exception it ended
    with.
    """
    if not max_step > 0:
        raise ValueError("`max_step` must be positive.")
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=2)
        rtol = np.maximum(rtol, 100 * _EPS)
    return _Lockstep(rhs, events, rtol, atol, max_step, grid_step,
                     min_gap).run(list(gens))
