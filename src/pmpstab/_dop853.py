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
- events are located per row with `brentq` on the step's interpolant.

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
rows, are evaluated together, then put one run per row.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

__all__ = ["Segment", "Outcome", "Samples", "run"]

_NS = _dop.N_STAGES                    # 12 stages; K row 12 holds f_new
_NX = _dop.N_STAGES_EXTENDED           # 16 with the dense-output stages
_A = [np.ascontiguousarray(_dop.A[s, :s]) for s in range(_NX)]
_C, _B, _E3, _E5, _D = _dop.C, _dop.B, _dop.E3, _dop.E5, _dop.D
_POWER = _dop.INTERPOLATOR_POWER       # 7 dense-output coefficients

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
_ERR_EXP = -1 / (7 + 1)                # the error estimator has order 7
_EPS = np.finfo(float).eps
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
    """Growable sample store of one row: times t[:count], states y[:count]."""

    __slots__ = ("t", "y", "count")

    def __init__(self, d: int):
        self.t = np.empty(0)
        self.y = np.empty((0, d))
        self.count = 0

    def reserve(self, extra: int) -> None:
        need = self.count + extra
        if need > len(self.t):
            cap = max(need, len(self.t) + len(self.t) // 2)
            t, y = np.empty(cap), np.empty((cap, self.y.shape[1]))
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
        tc = t[:, None] + _C * hc        # the stage times t + c*h
        K = self.K_work[:na]
        KT = K.transpose(0, 2, 1)
        groups = self.groups([r.kid for r in rows])
        K[:, 0] = self.f
        for s in range(1, _NS):
            dy = np.matmul(KT[:, :, :s], _A[s]) * hc
            self.eval_rhs(tc[:, s], y + dy, groups, pos, dead, K[:, s])
        y_new = y + hc * np.matmul(KT[:, :, :_NS], _B)
        self.eval_rhs(t + h, y_new, groups, pos, dead, K[:, _NS])
        f_new = K[:, _NS].copy()
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err5 = np.matmul(KT[:, :, :_NS + 1], _E5) / scale
        err3 = np.matmul(KT[:, :, :_NS + 1], _E3) / scale

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
        F[:, 3:] = h[:, None, None] * np.matmul(_D, K)
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
        """solve_ivp's handle_events on one step: a brentq root of every
        active event on the step's interpolant, which the event function
        receives as an array; returns the event index, root and state of
        the earliest."""
        Fl, yl, h = F.tolist(), y_old.tolist(), t_new - t_old
        roots = []
        for e in active:
            ev = self.events[e][0]
            roots.append((brentq(
                lambda tt: ev(tt, np.array(_interp(Fl, yl, t_old, h, tt))),
                t_old, t_new, xtol=_ROOT_TOL, rtol=_ROOT_TOL), e))
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
