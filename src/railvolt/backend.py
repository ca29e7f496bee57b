"""Thin abstraction over the LP/MILP engine.

This is the only module that talks to a third-party solver: HiGHS 1.12,
through scipy's private binding ``scipy.optimize._highspy._core._Highs``
(hence the ``scipy>=1.17`` floor). A :class:`Session` is passed its model
once and keeps it alive: it can change row bounds, column bounds and
costs, append rows, take a MIP start and run again, an LP from its last
basis. Every run maps HiGHS's status onto a
:class:`SolveOutcome` the same way. The decomposition keeps sessions for
its pricing LPs and its master, and :class:`FarkasLP` holds one for
infeasibility proofs. Named models are described engine-neutrally in
:class:`AbstractModel`: columns, added in blocks and kept as arrays, and
rows, kept as one :class:`RowBlock` of CSR data. Rows have one form, arrays
of ids, per-row entry counts, column indices, coefficients, senses and
right-hand sides, and one entry, :func:`checked_rows`, which checks them
and returns the block; a block also reads as ``(id, [(column,
coefficient), ...], sense, rhs)`` rows. :class:`ScipyBackend` solves a
model in one live session that its first solve builds and each later
solve re-runs cold. New column bounds and right-hand sides reach that
session in place; a new column or row drops it, so the next solve builds
a fresh one. Models can be exported to the textual LP interchange format
for debugging.

Dual-value convention: the dual of a row is d(objective)/d(rhs) in the row's
*stated* sense. For a minimization problem that makes duals of ``>=`` rows
nonnegative and duals of ``<=`` rows nonpositive.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, fields, replace
from typing import (AbstractSet, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs

from .domain import RailvoltError

CONTINUOUS = "continuous"
BINARY = "binary"
GE, LE, EQ = ">=", "<=", "="
_SENSES = (GE, LE, EQ)
_RAY_TOL = 1e-8         # a Farkas ray must prove a violation above this


class BackendError(RailvoltError):
    """The engine failed or returned something unusable."""


class CapabilityError(BackendError):
    """The request is outside what the adapter supports (e.g. an LP export
    of a column id the format cannot carry)."""


# ---------------------------------------------------------------------------
# Model description
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RowBlock:
    """Checked rows in insertion order, as CSR data with per-row counts.

    Row r is ``ids[r]``, with the ``counts[r]`` entries of
    ``indices``/``values`` that follow the previous rows' entries, the sense
    ``senses[r]`` and the right-hand side ``rhs[r]``. Zero coefficients are
    never stored. :func:`checked_rows` makes blocks; an
    :class:`AbstractModel` keeps its rows as one. A block also reads as its
    rows: ``len`` counts them, and iterating yields ``(id, [(column,
    coefficient), ...], sense, rhs)`` in row order, as Python numbers.
    """
    ids: Dict[str, None]   # an ordered set
    counts: np.ndarray     # int64, entries per row
    indices: np.ndarray    # int32 column indices
    values: np.ndarray     # float64 coefficients
    senses: np.ndarray     # "<U2": ">=", "<=" or "="
    rhs: np.ndarray        # float64

    @property
    def indptr(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.counts)])

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Tuple[str, List[Tuple[int, float]], str,
                                         float]]:
        entries = list(zip(self.indices.tolist(), self.values.tolist()))
        ends = self.indptr.tolist()
        return zip(self.ids, (entries[a:b] for a, b in zip(ends, ends[1:])),
                   self.senses.tolist(), self.rhs.tolist())

    def __add__(self, other: "RowBlock") -> "RowBlock":
        """This block's rows, then ``other``'s (ids are not checked)."""
        return RowBlock({**self.ids, **other.ids}, *(
            np.concatenate([getattr(self, f.name), getattr(other, f.name)])
            for f in fields(self)[1:]))


_NO_ROWS = RowBlock({}, np.zeros(0, np.int64), np.zeros(0, np.int32),
                    np.zeros(0), np.zeros(0, "<U2"), np.zeros(0))


def _fresh_ids(ids: Sequence[str], taken: AbstractSet[str],
               what: str) -> Dict[str, None]:
    """``ids`` as an ordered set; refuses, naming it, the first id that
    repeats an earlier one or is in ``taken``."""
    fresh = dict.fromkeys(ids)
    if len(fresh) != len(ids) or not taken.isdisjoint(fresh):
        seen = set(taken)
        for i in ids:
            if i in seen:
                raise BackendError(f"duplicate {what} id {i!r}")
            seen.add(i)
    return fresh


def checked_rows(ids: Sequence[str], counts, indices, values, senses, rhs,
                 n_cols: int, taken: AbstractSet[str] = frozenset()
                 ) -> RowBlock:
    """The rows ``ids`` as one :class:`RowBlock`, after every check a row
    gets: the one way rows enter the package, whether for an
    :class:`AbstractModel` or a decomposition master.

    Row r is ``ids[r]``, with the ``counts[r]`` entries of ``indices`` and
    ``values`` that follow the previous rows' entries, the sense
    ``senses[r]`` and the right-hand side ``rhs[r]`` (``senses`` and
    ``rhs`` may be one value for every row). Zero coefficients are
    dropped, so they can pad rows to a common width (a column listed twice
    in one row stays twice; :meth:`AbstractModel.constraint_matrix` sums
    them). Non-finite numbers, column indices outside ``[0, n_cols)``,
    unknown senses and ids that repeat or are in ``taken`` are refused
    with the offending row's id.
    """
    n = len(ids)
    counts = np.asarray(counts, np.int64)
    cols, values = np.asarray(indices), np.asarray(values, float)
    senses = np.broadcast_to(np.asarray(senses), n)
    rhs = np.broadcast_to(np.asarray(rhs, float), n)
    if len(counts) != n or counts.sum() != len(cols) \
            or len(cols) != len(values):
        raise BackendError(
            f"inconsistent row arrays: {n} ids, {len(counts)} counts, "
            f"{len(cols)} indices, {len(values)} values")

    fresh = _fresh_ids(ids, taken, "row")
    bad = ~np.isin(senses, _SENSES)
    if bad.any():
        r = int(np.argmax(bad))
        raise BackendError(f"row {ids[r]!r}: unknown sense {senses[r]!r}")
    bad = ~np.isfinite(rhs)
    if bad.any():
        raise BackendError(f"row {ids[int(np.argmax(bad))]!r}: non-finite rhs")
    row_of = np.repeat(np.arange(n), counts)
    keep = values != 0.0
    bad = keep & ~((cols >= 0) & (cols < n_cols) & (cols == np.floor(cols)))
    if bad.any():
        e = int(np.argmax(bad))
        raise BackendError(f"row {ids[row_of[e]]!r}: unknown column index "
                           f"{cols[e]:g}")
    bad = keep & ~np.isfinite(values)
    if bad.any():
        raise BackendError(f"row {ids[row_of[int(np.argmax(bad))]]!r}: "
                           "non-finite coefficient")
    return RowBlock(fresh, np.bincount(row_of[keep], minlength=n),
                    cols[keep].astype(np.int32), values[keep],
                    senses.astype("<U2"), rhs.copy())


class AbstractModel:
    """A minimize-sense linear model with continuous and binary columns.

    Both come in checked blocks that are appended to what the model keeps:
    columns through :meth:`add_columns`, as one array each of lower bounds,
    upper bounds, costs and integral flags, and rows through
    :meth:`add_row_arrays`, as the arrays :func:`checked_rows` checks, kept
    as one :class:`RowBlock`. :meth:`add_column` and :meth:`add_row` are
    blocks of one.
    :meth:`set_bounds` rebounds built columns, so one model can be solved
    under several fixings, and :meth:`set_rhs` moves built rows'
    right-hand sides.

    The model also keeps the live :class:`Session` that
    :meth:`ScipyBackend.solve` builds for it: :meth:`set_bounds` and
    :meth:`set_rhs` write through to it, and adding columns or rows drops
    it.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.objective_offset: float = 0.0
        self._col_ids: Dict[str, None] = {}   # an ordered set
        self._lower = np.zeros(0)
        self._upper = np.zeros(0)
        self._objective = np.zeros(0)
        self._integral = np.zeros(0, bool)
        self._rows = _NO_ROWS
        self._session: Optional[Session] = None

    # -- construction -------------------------------------------------------

    def add_columns(self, ids: Iterable[str], kind: str = CONTINUOUS,
                    lower=0.0, upper=np.inf, objective=0.0) -> range:
        """Append one column of ``kind`` per id as one block; returns their
        indices. ``lower``, ``upper`` and ``objective`` are one value or one
        per id (binaries get [0, 1]). Repeated or taken ids, an unknown
        kind, crossed or NaN bounds and non-finite costs are refused, naming
        the column; a refused block leaves the model as it was."""
        ids = list(ids)
        n = len(ids)
        fresh = _fresh_ids(ids, self._col_ids.keys(), "column")
        if kind == BINARY:
            lower, upper = 0.0, 1.0
        elif kind != CONTINUOUS:
            raise BackendError(f"unknown column kind {kind!r} for {ids[:1]}")
        lower, upper, objective = (np.broadcast_to(np.asarray(v, float), n)
                                   for v in (lower, upper, objective))
        bad = ~(lower <= upper) | ~np.isfinite(objective)
        if bad.any():
            c = int(np.argmax(bad))
            raise BackendError(f"column {ids[c]!r}: bounds [{lower[c]}, "
                               f"{upper[c]}], objective {objective[c]}")
        start = self.n_cols
        self._lower = np.concatenate([self._lower, lower])
        self._upper = np.concatenate([self._upper, upper])
        self._objective = np.concatenate([self._objective, objective])
        self._integral = np.concatenate([self._integral,
                                         np.full(n, kind == BINARY)])
        self._col_ids.update(fresh)
        self._session = None
        return range(start, start + n)

    def add_column(self, cid: str, kind: str = CONTINUOUS, lower: float = 0.0,
                   upper: float = np.inf, objective: float = 0.0) -> int:
        return self.add_columns([cid], kind, lower, upper, objective)[0]

    def add_row_arrays(self, ids: Sequence[str], counts, indices, values,
                       senses, rhs) -> range:
        """Append the rows ``ids``, given as arrays (see
        :func:`checked_rows`, whose checks they get), as one block; returns
        their indices. A refused row leaves the model as it was."""
        start = self.n_rows
        self._rows += checked_rows(ids, counts, indices, values, senses, rhs,
                                   self.n_cols, self._rows.ids.keys())
        self._session = None
        return range(start, self.n_rows)

    def add_row(self, rid: str, entries: Sequence[Tuple[int, float]],
                sense: str, rhs: float) -> int:
        """Append the row ``rid``: ``entries`` are (column, coefficient)
        pairs."""
        cols, values = zip(*entries) if entries else ((), ())
        return self.add_row_arrays([rid], [len(entries)], cols, values, sense,
                                   rhs)[0]

    def set_bounds(self, idx, lower, upper) -> None:
        """Bound the columns ``idx`` (one index or an array of them) by
        ``lower`` and ``upper`` (one value or one per index), replacing
        their bounds; equal bounds pin a column. Crossed or NaN bounds, and
        a binary column's bounds outside [0, 1], are refused, naming the
        first such column, and nothing changes. A live session gets the
        new bounds too."""
        idx = np.atleast_1d(idx)
        lower, upper = (np.broadcast_to(np.asarray(v, float), idx.shape)
                        for v in (lower, upper))
        bad = ~(lower <= upper) | (self._integral[idx]
                                   & ((lower < 0.0) | (upper > 1.0)))
        if bad.any():
            c = int(np.argmax(bad))
            raise BackendError(f"column {self.col_ids[idx[c]]!r}: bounds "
                               f"[{lower[c]}, {upper[c]}]")
        self._lower[idx], self._upper[idx] = lower, upper
        if self._session is not None:
            cols = np.unique(np.arange(self.n_cols)[idx])
            self._session.set_bounds(cols, self._lower[cols],
                                     self._upper[cols])

    def set_rhs(self, rows, rhs) -> None:
        """Give the rows ``rows`` (one index or an array of them) the
        right-hand side ``rhs`` (one value or one per index). A non-finite
        value is refused, naming the first such row, and nothing changes.
        A live session gets the new right-hand sides too."""
        rows = np.atleast_1d(rows)
        rhs = np.broadcast_to(np.asarray(rhs, float), rows.shape)
        bad = ~np.isfinite(rhs)
        if bad.any():
            r = int(rows[np.argmax(bad)])
            raise BackendError(f"row {self.row_ids[r]!r}: non-finite rhs")
        new = self._rows.rhs.copy()
        new[rows] = rhs
        self._rows = replace(self._rows, rhs=new)
        if self._session is not None:
            self._session.set_rhs(self._rows.rhs)

    # -- introspection ------------------------------------------------------

    @property
    def n_cols(self) -> int:
        return len(self._col_ids)

    @property
    def col_ids(self) -> Tuple[str, ...]:
        """Column ids in column order."""
        return tuple(self._col_ids)

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def row_ids(self) -> Tuple[str, ...]:
        """Row ids in row order."""
        return tuple(self._rows.ids)

    def constraint_matrix(self) -> sp.csr_matrix:
        """The rows as a canonical CSR matrix: column indices sorted within
        each row, repeated columns of a row summed."""
        rows = self._rows
        A = sp.csr_matrix((rows.values, rows.indices, rows.indptr),
                          shape=(self.n_rows, self.n_cols), copy=True)
        A.sum_duplicates()
        return A

    def arrays(self):
        """(c, lb, ub, integrality, A, senses, rhs) as numpy/scipy objects,
        copies of what the model stores (integrality 1 on binaries)."""
        rows = self._rows
        return (self._objective.copy(), self._lower.copy(),
                self._upper.copy(), self._integral.astype(int),
                self.constraint_matrix(), rows.senses.copy(), rows.rhs.copy())


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass
class SolveOutcome:
    status: str  # optimal | feasible-limit | limit-no-incumbent |
    #              infeasible | unbounded | error
    primal: Optional[np.ndarray] = None
    objective: Optional[float] = None
    best_bound: Optional[float] = None
    duals: Optional[np.ndarray] = None  # row duals; LPs only
    bound_duals: Optional[np.ndarray] = None  # d objective / d column upper
    gap: Optional[float] = None
    wall_seconds: float = 0.0
    message: str = ""
    has_integers: bool = False


# ---------------------------------------------------------------------------
# HiGHS sessions
# ---------------------------------------------------------------------------

_MS = _highs.HighsModelStatus
_LIMITS = (_MS.kTimeLimit, _MS.kIterationLimit)
_DEFAULTS = _highs.HighsOptions()
_AT_UPPER = int(_highs.HighsBasisStatus.kUpper)
# HiGHS's type of a continuous and of an integral column: the binding takes
# only enum values, and one table lookup per column beats building each.
_VAR_TYPE = (_highs.HighsVarType.kContinuous, _highs.HighsVarType.kInteger)


def _checked(status, what: str) -> None:
    """Raise when HiGHS refuses a change to its model or options."""
    if status == _highs.HighsStatus.kError:
        raise BackendError(f"HiGHS refused {what}")


def _row_bounds(senses: np.ndarray, rhs: np.ndarray):
    """HiGHS's ``lower <= row <= upper`` form of ``row {senses} rhs``."""
    return (np.where(senses == LE, -np.inf, rhs),
            np.where(senses == GE, np.inf, rhs))


class Session:
    """One HiGHS model kept alive between runs.

    The model is: minimize ``c^T x + offset`` s.t. ``A x {senses} rhs``,
    ``lb <= x <= ub``, and ``x`` integral where ``integrality`` is 1 (no
    ``integrality``: an LP). HiGHS is passed it once, as column-wise arrays;
    after that the setters change it in place (right-hand sides, costs,
    column bounds and appended rows) and :meth:`run` solves it again;
    ``has_integers``, whether it is a MILP, is fixed when it is built. An
    LP re-run starts from the last basis; when such a warm run ends
    neither optimal, infeasible nor at its time or iteration limit,
    the solver is cleared and the run repeated once cold. A MILP re-run
    starts from scratch, or from the point given to :meth:`set_start`. When
    a MILP run ends in HiGHS's ``Solve error`` (as when HiGHS's optimum,
    mapped back through presolve, violates a row by 1e-6), the solver is
    cleared and the run repeated once without presolve. ``seed`` is HiGHS's
    ``random_seed`` for every run until :meth:`set_seed` changes it (0,
    HiGHS's default, changes nothing).
    Arrays HiGHS cannot take (inconsistent shapes, or a model it rejects)
    raise :class:`BackendError` here, when the session is built.
    """

    def __init__(self, c, A, senses, rhs, lb, ub, integrality=None,
                 offset: float = 0.0, seed: int = 0):
        self.offset = offset
        self.senses = np.asarray(senses)
        self.rhs = np.array(rhs, dtype=float)
        self.runs = 0  # runs so far
        self._warm = False  # whether HiGHS holds a basis from a run
        self._highs = _highs._Highs()
        options = _highs.HighsOptions()
        options.log_to_console = False
        options.random_seed = seed
        self._highs.passOptions(options)
        n = len(c)
        integral = np.zeros(n, bool) if integrality is None \
            else np.asarray(integrality) != 0
        self.has_integers = bool(integral.any())
        if A.shape != (len(self.rhs), n) or len(self.senses) != len(self.rhs) \
                or len(lb) != n or len(ub) != n or len(integral) != n:
            raise BackendError(
                f"inconsistent shapes: A {A.shape}, {n} costs, "
                f"{len(self.rhs)} rows, {len(lb)}/{len(ub)} bounds")
        A = sp.csc_array(A)
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = len(self.rhs)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.col_lower_ = np.asarray(lb, dtype=float)
        lp.col_upper_ = np.asarray(ub, dtype=float)
        lp.row_lower_, lp.row_upper_ = _row_bounds(self.senses, self.rhs)
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data.astype(float)
        if self.has_integers:
            lp.integrality_ = [_VAR_TYPE[i] for i in integral.tolist()]
        _checked(self._highs.passModel(lp), "the model")

    # -- changes ------------------------------------------------------------

    def set_rhs(self, rhs: np.ndarray) -> None:
        """New right-hand sides; only the rows whose value moved reach
        HiGHS (the binding changes row bounds one row at a time)."""
        rhs = np.asarray(rhs, dtype=float)
        moved = np.flatnonzero(rhs != self.rhs)
        lower, upper = _row_bounds(self.senses[moved], rhs[moved])
        for r, lo, hi in zip(moved.tolist(), lower.tolist(), upper.tolist()):
            _checked(self._highs.changeRowBounds(r, lo, hi), f"row {r} bounds")
        self.rhs[moved] = rhs[moved]

    def set_bounds(self, cols, lower, upper) -> None:
        """New bounds on the columns ``cols`` (distinct indices)."""
        _checked(self._highs.changeColsBounds(
            len(cols), np.asarray(cols, np.int32),
            np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)),
            "the column bounds")

    def set_seed(self, seed: int) -> None:
        """HiGHS's ``random_seed`` for the next runs."""
        _checked(self._highs.setOptionValue("random_seed", int(seed)),
                 f"seed {seed}")

    def set_costs(self, c: np.ndarray) -> None:
        _checked(self._highs.changeColsCost(
            len(c), np.arange(len(c), dtype=np.int32),
            np.asarray(c, dtype=float)), "the costs")

    def add_rows(self, A, senses, rhs) -> None:
        """Append the rows ``A x {senses} rhs`` (``A`` over every column)."""
        A = sp.csr_array(A)
        senses, rhs = np.asarray(senses), np.asarray(rhs, dtype=float)
        lower, upper = _row_bounds(senses, rhs)
        _checked(self._highs.addRows(
            len(rhs), lower, upper, A.nnz, A.indptr.astype(np.int32),
            A.indices.astype(np.int32), A.data.astype(float)), "the new rows")
        self.senses = np.append(self.senses, senses)
        self.rhs = np.append(self.rhs, rhs)

    def clear(self) -> None:
        """Drop the basis and solution: the next run starts cold."""
        self._highs.clearSolver()
        self._warm = False

    def set_start(self, x: np.ndarray) -> None:
        """A MIP start for the next run (HiGHS drops it if infeasible)."""
        _checked(self._highs.setSolution(
            len(x), np.arange(len(x), dtype=np.int32),
            np.asarray(x, dtype=float)), "the MIP start")

    # -- runs ---------------------------------------------------------------

    def run(self, gap: Optional[float] = None,
            seconds: Optional[float] = None) -> SolveOutcome:
        """Solve the model as it stands now.

        ``gap`` is HiGHS's relative MIP gap and ``seconds`` the time limit
        of this run alone (HiGHS's defaults when None). The HiGHS status
        maps onto a :class:`SolveOutcome`: optimal; a time or iteration
        limit with or without an incumbent (LPs never keep one); infeasible;
        unbounded; anything else is an error. A MILP outcome carries HiGHS's
        dual bound and gap when it has an incumbent. An optimal LP outcome
        carries the row duals (module convention) and ``bound_duals``, the
        duals of the column upper bounds (<= 0, zero where a bound does not
        bind).
        """
        t0 = time.perf_counter()
        out = SolveOutcome(status="error", has_integers=self.has_integers)
        try:
            self._run(out, gap, seconds)
        except MemoryError as exc:
            out.status, out.message = "error", str(exc)
        out.wall_seconds = time.perf_counter() - t0
        return out

    def _run(self, out: SolveOutcome, gap, seconds) -> None:
        h = self._highs
        gap = _DEFAULTS.mip_rel_gap if gap is None else gap
        seconds = _DEFAULTS.time_limit if seconds is None else seconds
        _checked(h.setOptionValue("mip_rel_gap", float(gap)), f"gap {gap}")
        _checked(h.setOptionValue("time_limit", float(seconds)),
                 f"time limit {seconds}")
        h.run()
        status = h.getModelStatus()
        if self.has_integers and status == _MS.kSolveError:
            # HiGHS checks its optimum after postsolve; a cold run without
            # presolve has no postsolve to leave a row 1e-6 off.
            self.clear()
            _checked(h.setOptionValue("presolve", "off"), "presolve off")
            h.run()
            status = h.getModelStatus()
            _checked(h.setOptionValue("presolve", _DEFAULTS.presolve),
                     "presolve back on")
        elif self._warm and not self.has_integers \
                and status not in (_MS.kOptimal, _MS.kInfeasible, *_LIMITS):
            self.clear()
            h.run()
            status = h.getModelStatus()
        self.runs += 1
        self._warm = True

        info = h.getInfo()
        found = status == _MS.kOptimal or (
            status in _LIMITS and self.has_integers
            and info.objective_function_value < _highs.kHighsInf)
        if status in _LIMITS:
            out.status = "feasible-limit" if found else "limit-no-incumbent"
        else:
            out.status = {_MS.kOptimal: "optimal",
                          _MS.kInfeasible: "infeasible",
                          _MS.kUnbounded: "unbounded"}.get(status, "error")
        out.message = h.modelStatusToString(status)
        if not found:
            return
        solution = h.getSolution()
        out.primal = np.array(solution.col_value)
        out.objective = info.objective_function_value + self.offset
        if self.has_integers:
            out.best_bound = info.mip_dual_bound + self.offset
            out.gap = info.mip_gap
            return
        out.best_bound = out.objective
        out.duals = np.array(solution.row_dual)
        col_status = h.getBasis().col_status
        at_upper = np.fromiter(map(int, col_status), np.int8, len(col_status))
        out.bound_duals = np.where(at_upper == _AT_UPPER, solution.col_dual,
                                   0.0)


# ---------------------------------------------------------------------------
# Named models and Farkas rays
# ---------------------------------------------------------------------------

class ScipyBackend:
    """Solves an :class:`AbstractModel`, a MILP when it has binary columns
    and an LP otherwise, as one cold run of the model's live
    :class:`Session`.

    The first solve builds that session from the model's arrays and the
    model keeps it. A later solve clears it (no basis, incumbent or MIP
    start carries over), sets the call's ``seed`` and the model's current
    ``objective_offset`` and runs it again, so it answers as a fresh
    session would. Bounds set through :meth:`AbstractModel.set_bounds`
    reach the live session in place; a new column or row drops it, and
    the next solve builds a fresh one.

    LPs come back with row and upper-bound duals. An infeasible LP is only a
    status; :class:`FarkasLP` proves it on request from the arrays. HiGHS
    may multithread internally.
    """

    def solve(self, model: AbstractModel, gap: Optional[float] = None,
              seconds: Optional[float] = None, seed: int = 0) -> SolveOutcome:
        session = model._session
        if session is None:
            c, lb, ub, integrality, A, senses, rhs = model.arrays()
            session = model._session = Session(
                c, A, senses, rhs, lb, ub, integrality, seed=seed)
        else:
            session.clear()
            session.set_seed(seed)
        session.offset = model.objective_offset
        return session.run(gap, seconds)


class FarkasRay(NamedTuple):
    """Multipliers proving ``A x {senses} rhs``, ``0 <= x <= ub`` infeasible.

    ``rows`` weighs each row in its ``>=`` orientation: >= 0 on ``>=`` rows,
    <= 0 on ``<=`` rows, free on equalities. ``lower`` and ``upper`` are the
    >= 0 multipliers of ``x >= 0`` and of the upper bounds, ``upper`` zero
    where a bound is infinite. They satisfy ``A^T rows + lower - upper = 0``
    and ``rhs^T rows - ub^T upper = violation > 0``.
    """
    rows: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    violation: float


class FarkasLP:
    """The Farkas LP of a system ``A x {senses} rhs`` over ``x >= 0``, held
    in one :class:`Session` for a fixed ``A``, ``senses`` and ``ub``.

    Inequality rows enter in their ``>=`` orientation, each equality as a
    +/- pair, and each finite upper bound with a multiplier; together these
    multipliers rho (>= 0) have mass <= 1:

        max  h^T rho   s.t.  G rho <= 0,  sum rho <= 1

    with one row of ``G`` per column; that row's slack is the multiplier of
    the column's bound ``x >= 0``. ``G`` does not depend on ``rhs``; only
    ``h`` does, so :meth:`ray` changes the costs and runs again.
    """

    def __init__(self, A: sp.csr_matrix, senses: np.ndarray, ub: np.ndarray):
        self.ineq, self.eq = senses != EQ, senses == EQ
        self.sign = np.where(senses[self.ineq] == LE, -1.0, 1.0)  # <= as >=
        self.ub, self.has_ub = ub, np.isfinite(ub)
        I_ub = sp.identity(len(ub), format="csr")[self.has_ub]
        self.G = sp.hstack([(sp.diags(self.sign) @ A[self.ineq]).T,
                            A[self.eq].T, -A[self.eq].T, -I_ub.T]).tocsr()
        m, n = self.G.shape
        self.session = None if n == 0 else Session(  # n == 0: nothing to prove
            np.zeros(n), sp.vstack([self.G, np.ones((1, n))]),
            np.full(m + 1, LE), np.append(np.zeros(m), 1.0), np.zeros(n),
            np.full(n, np.inf))

    def ray(self, rhs: np.ndarray) -> Optional[FarkasRay]:
        """The ray for right-hand sides ``rhs``; None if none beats
        ``_RAY_TOL``."""
        if self.session is None:
            return None
        ineq, eq = self.ineq, self.eq
        h = np.concatenate([self.sign * rhs[ineq], rhs[eq], -rhs[eq],
                            -self.ub[self.has_ub]])
        self.session.set_costs(-h)
        out = self.session.run()
        if out.status != "optimal" or -out.objective <= _RAY_TOL:
            return None
        x = out.primal
        n_in, n_eq = int(ineq.sum()), int(eq.sum())
        rows = np.zeros(len(rhs))
        rows[ineq] = self.sign * x[:n_in]
        rows[eq] = x[n_in:n_in + n_eq] - x[n_in + n_eq:n_in + 2 * n_eq]
        upper = np.zeros(len(self.ub))
        upper[self.has_ub] = x[n_in + 2 * n_eq:]
        return FarkasRay(rows, np.maximum(0.0, -(self.G @ x)), upper,
                         float(-out.objective))


# ---------------------------------------------------------------------------
# LP interchange format
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _fmt(x: float) -> str:
    # Positional notation only, never exponent forms such as "1e-06": the
    # pinned worked-example text depends on this exact rendering.
    return np.format_float_positional(float(x), unique=True)


def to_lp_string(model: AbstractModel) -> str:
    """Serialize to the textual LP format (canonical spacing, full precision)."""
    names = model.col_ids
    for cid in names:
        if not _NAME_RE.match(cid):
            raise CapabilityError(f"column id {cid!r} is not LP-safe")
    if not np.isfinite(model._lower).all():
        raise CapabilityError("LP export requires finite lower bounds")
    binary = model._integral.tolist()
    out = [f"\\ {model.name}", "Minimize"]
    terms = [(cid, c) for cid, c in zip(names, model._objective.tolist())
             if c != 0.0]
    out.append(" obj: " + _expr(terms, model.objective_offset))
    out.append("Subject To")
    for rid, entries, sense, rhs in model._rows:
        expr = _expr([(names[ci], v) for ci, v in entries], 0.0)
        out.append(f" {rid}: {expr} {sense} {_fmt(rhs)}")
    out.append("Bounds")
    for cid, lower, upper, is_binary in zip(
            names, model._lower.tolist(), model._upper.tolist(), binary):
        if is_binary:
            continue
        if np.isinf(upper):
            if lower != 0.0:
                out.append(f" {cid} >= {_fmt(lower)}")
        else:
            out.append(f" {_fmt(lower)} <= {cid} <= {_fmt(upper)}")
    binaries = [cid for cid, is_binary in zip(names, binary) if is_binary]
    if binaries:
        out.append("Binary")
        for cid in binaries:
            out.append(f" {cid}")
    out.append("End")
    return "\n".join(out) + "\n"


def _expr(terms: Sequence[Tuple[str, float]], constant: float) -> str:
    if not terms and constant == 0.0:
        return "0"
    parts = []
    for name, coef in terms:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(coef))} {name}")
    if constant != 0.0:
        sign = "-" if constant < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(constant))}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def write_lp(model: AbstractModel, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(to_lp_string(model))
