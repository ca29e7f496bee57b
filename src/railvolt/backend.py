"""Thin abstraction over the LP/MILP engine.

This is the only module that talks to a third-party solver: HiGHS, through
``scipy.optimize.linprog`` / ``milp``. Models are described engine-neutrally
(columns, rows, senses) and solved by :class:`ScipyBackend`; the array-level
routines :func:`solve_lp` and :func:`farkas_ray` serve callers that hold a
system as matrices (the decomposition's scheduling LP). Models can be
exported to the textual LP interchange format for debugging.

Dual-value convention: the dual of a row is d(objective)/d(rhs) in the row's
*stated* sense. For a minimization problem that makes duals of ``>=`` rows
nonnegative and duals of ``<=`` rows nonpositive.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, milp, LinearConstraint, Bounds

from .domain import RailvoltError

CONTINUOUS = "continuous"
BINARY = "binary"
GE, LE, EQ = ">=", "<=", "="
_SENSES = (GE, LE, EQ)


class BackendError(RailvoltError):
    """The engine failed or returned something unusable."""


class CapabilityError(BackendError):
    """The request is outside what the adapter supports (e.g. an LP export
    of a column id the format cannot carry)."""


# ---------------------------------------------------------------------------
# Model description
# ---------------------------------------------------------------------------

@dataclass
class Column:
    id: str
    kind: str
    lower: float
    upper: float
    objective: float


class _Rows(NamedTuple):
    """Rows in insertion order, as CSR data with per-row counts.

    Row r holds the ``counts[r]`` entries of ``indices``/``values`` that
    follow the previous rows' entries. Zero coefficients are never stored.
    """
    counts: np.ndarray     # int64, entries per row
    indices: np.ndarray    # int32 column indices
    values: np.ndarray     # float64 coefficients
    senses: np.ndarray     # "<U2": ">=", "<=" or "="
    rhs: np.ndarray        # float64


_NO_ROWS = _Rows(np.zeros(0, np.int64), np.zeros(0, np.int32), np.zeros(0),
                 np.zeros(0, "<U2"), np.zeros(0))


class AbstractModel:
    """A minimize-sense linear model with continuous and binary columns.

    The rows live in numpy chunks of CSR data (:class:`_Rows`). Single rows
    from :meth:`add_row` collect in Python lists until the next block from
    :meth:`add_rows` or the next read turns them into a chunk; a read joins
    all chunks into one.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.columns: List[Column] = []
        self.objective_offset: float = 0.0
        self._col_ids: Dict[str, int] = {}
        self._row_ids: List[str] = []
        self._row_id_set: Set[str] = set()
        self._chunks: List[_Rows] = []
        self._pending = _Rows([], [], [], [], [])

    # -- construction -------------------------------------------------------

    def add_column(self, cid: str, kind: str = CONTINUOUS, lower: float = 0.0,
                   upper: float = np.inf, objective: float = 0.0) -> int:
        if cid in self._col_ids:
            raise BackendError(f"duplicate column id {cid!r}")
        if kind == BINARY:
            lower, upper = 0.0, 1.0
        elif kind != CONTINUOUS:
            raise BackendError(f"unknown column kind {kind!r}")
        if not (lower <= upper):
            raise BackendError(f"column {cid!r}: lower {lower} > upper {upper}")
        if not np.isfinite(objective):
            raise BackendError(f"column {cid!r}: non-finite objective")
        idx = len(self.columns)
        self.columns.append(Column(cid, kind, float(lower), float(upper),
                                   float(objective)))
        self._col_ids[cid] = idx
        return idx

    def add_row(self, rid: str, entries: Sequence[Tuple[int, float]],
                sense: str, rhs: float) -> int:
        if rid in self._row_id_set:
            raise BackendError(f"duplicate row id {rid!r}")
        if sense not in _SENSES:
            raise BackendError(f"row {rid!r}: unknown sense {sense!r}")
        if not math.isfinite(rhs):
            raise BackendError(f"row {rid!r}: non-finite rhs")
        n_cols = len(self.columns)
        indices, values = [], []
        for ci, val in entries:
            if val == 0.0:
                continue
            if not (0 <= ci < n_cols):
                raise BackendError(f"row {rid!r}: unknown column index {ci}")
            if not math.isfinite(val):
                raise BackendError(f"row {rid!r}: non-finite coefficient")
            indices.append(int(ci))
            values.append(float(val))
        pending = self._pending
        pending.counts.append(len(indices))
        pending.indices.extend(indices)
        pending.values.extend(values)
        pending.senses.append(sense)
        pending.rhs.append(float(rhs))
        self._row_id_set.add(rid)
        self._row_ids.append(rid)
        return len(self._row_ids) - 1

    def add_rows(self, ids: Sequence[str], indptr, indices, values,
                 senses, rhs) -> range:
        """Append a block of rows given as CSR arrays; returns their indices.

        Row r is ``ids[r]`` with the entries ``indptr[r]:indptr[r+1]`` of
        ``indices`` and ``values``; ``senses`` is one sense per row or one
        for all, ``rhs`` one number per row. The checks are those of
        :meth:`add_row`, vectorized: zero coefficients are dropped, and
        non-finite numbers, unknown columns, unknown senses and duplicate
        ids are refused with the offending row's id.
        """
        ids = list(ids)
        n = len(ids)
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        values = np.asarray(values, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        senses = np.broadcast_to(np.asarray(senses), (n,))
        if (indptr.shape != (n + 1,) or indptr.dtype.kind not in "iu"
                or indptr[0] != 0 or np.any(np.diff(indptr) < 0)
                or values.shape != indices.shape
                or values.shape != (int(indptr[-1]),) or rhs.shape != (n,)
                or (indices.size and indices.dtype.kind not in "iu")):
            raise BackendError(
                f"row block of {n} ids: inconsistent CSR arrays")

        fresh = set(ids)
        if len(fresh) != n or not self._row_id_set.isdisjoint(fresh):
            seen = set(self._row_id_set)
            for rid in ids:
                if rid in seen:
                    raise BackendError(f"duplicate row id {rid!r}")
                seen.add(rid)
        bad = ~np.isin(senses, _SENSES)
        if bad.any():
            r = int(np.argmax(bad))
            raise BackendError(f"row {ids[r]!r}: unknown sense {senses[r]!r}")
        bad = ~np.isfinite(rhs)
        if bad.any():
            raise BackendError(
                f"row {ids[int(np.argmax(bad))]!r}: non-finite rhs")
        row_of = np.repeat(np.arange(n), np.diff(indptr))
        keep = values != 0.0
        bad = keep & ((indices < 0) | (indices >= len(self.columns)))
        if bad.any():
            e = int(np.argmax(bad))
            raise BackendError(
                f"row {ids[row_of[e]]!r}: unknown column index {indices[e]}")
        bad = keep & ~np.isfinite(values)
        if bad.any():
            raise BackendError(f"row {ids[row_of[int(np.argmax(bad))]]!r}: "
                               "non-finite coefficient")

        self._flush()
        self._chunks.append(_Rows(
            np.bincount(row_of[keep], minlength=n),
            indices[keep].astype(np.int32), values[keep],
            senses.astype("<U2"), rhs.copy()))
        start = len(self._row_ids)
        self._row_id_set.update(fresh)
        self._row_ids.extend(ids)
        return range(start, start + n)

    def fix_column(self, idx: int, value: float) -> None:
        """Pin a column to a value (must lie within its declared bounds)."""
        col = self.columns[idx]
        if not (col.lower - 1e-12 <= value <= col.upper + 1e-12):
            raise BackendError(
                f"cannot fix {col.id!r} to {value} outside "
                f"[{col.lower}, {col.upper}]")
        col.lower = col.upper = float(value)

    # -- row storage ----------------------------------------------------------

    def _flush(self) -> None:
        """Turn the rows pending from :meth:`add_row` into a chunk."""
        p = self._pending
        if p.counts:
            self._chunks.append(_Rows(
                np.array(p.counts, np.int64), np.array(p.indices, np.int32),
                np.array(p.values, float), np.array(p.senses, "<U2"),
                np.array(p.rhs, float)))
            self._pending = _Rows([], [], [], [], [])

    def _rows(self) -> _Rows:
        """All rows as one chunk (in insertion order; do not modify)."""
        self._flush()
        if len(self._chunks) != 1:
            self._chunks = [_Rows(*(np.concatenate(part)
                                    for part in zip(_NO_ROWS, *self._chunks)))]
        return self._chunks[0]

    # -- introspection ------------------------------------------------------

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self._row_ids)

    @property
    def row_ids(self) -> Tuple[str, ...]:
        """Row ids in row order."""
        return tuple(self._row_ids)

    def column_index(self, cid: str) -> int:
        return self._col_ids[cid]

    @property
    def has_integers(self) -> bool:
        return any(c.kind == BINARY for c in self.columns)

    def constraint_matrix(self) -> sp.csr_matrix:
        """The rows as a canonical CSR matrix: column indices sorted within
        each row, repeated columns of a row summed."""
        rows = self._rows()
        indptr = np.concatenate([[0], np.cumsum(rows.counts)])
        A = sp.csr_matrix((rows.values, rows.indices, indptr),
                          shape=(self.n_rows, self.n_cols), copy=True)
        A.sum_duplicates()
        return A

    def arrays(self):
        """(c, lb, ub, integrality, A, senses, rhs) as numpy/scipy objects."""
        c = np.array([col.objective for col in self.columns])
        lb = np.array([col.lower for col in self.columns])
        ub = np.array([col.upper for col in self.columns])
        integrality = np.array(
            [1 if col.kind == BINARY else 0 for col in self.columns])
        rows = self._rows()
        return (c, lb, ub, integrality, self.constraint_matrix(),
                rows.senses.copy(), rows.rhs.copy())


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
# The scipy/HiGHS adapter
# ---------------------------------------------------------------------------

class ScipyBackend:
    """Drives HiGHS through scipy.optimize (linprog for LPs, milp for MILPs).

    LPs come back with row and upper-bound duals. An infeasible LP is only a
    status; :func:`farkas_ray` proves it on request from the model's arrays.
    One solve = one engine session; HiGHS may multithread internally.
    """

    def solve(self, model: AbstractModel, gap: Optional[float] = None,
              seconds: Optional[float] = None) -> SolveOutcome:
        t0 = time.perf_counter()
        try:
            if model.has_integers:
                out = self._solve_milp(model, gap, seconds)
            else:
                c, lb, ub, _, A, senses, rhs = model.arrays()
                out = solve_lp(c, A, senses, rhs, lb, ub, seconds,
                               offset=model.objective_offset)
        except (ValueError, MemoryError) as exc:
            out = SolveOutcome(status="error", message=str(exc),
                               has_integers=model.has_integers)
        out.wall_seconds = time.perf_counter() - t0
        return out

    # -- MILP ---------------------------------------------------------------

    def _solve_milp(self, model, gap, seconds):
        c, lb, ub, integrality, A, senses, rhs = model.arrays()
        row_lb = np.where(senses == LE, -np.inf, rhs)
        row_ub = np.where(senses == GE, np.inf, rhs)
        options = {}
        if gap is not None:
            options["mip_rel_gap"] = gap
        if seconds is not None:
            options["time_limit"] = seconds
        res = milp(c, constraints=LinearConstraint(A, row_lb, row_ub),
                   integrality=integrality, bounds=Bounds(lb, ub),
                   options=options)
        off = model.objective_offset
        if res.status == 0:
            return SolveOutcome(
                status="optimal", primal=np.asarray(res.x),
                objective=float(res.fun) + off,
                best_bound=_maybe(res, "mip_dual_bound", off),
                gap=getattr(res, "mip_gap", None),
                message=res.message, has_integers=True)
        if res.status == 1:
            if res.x is not None:
                return SolveOutcome(
                    status="feasible-limit", primal=np.asarray(res.x),
                    objective=float(res.fun) + off,
                    best_bound=_maybe(res, "mip_dual_bound", off),
                    gap=getattr(res, "mip_gap", None),
                    message=res.message, has_integers=True)
            return SolveOutcome(status="limit-no-incumbent",
                                best_bound=_maybe(res, "mip_dual_bound", off),
                                message=res.message, has_integers=True)
        if res.status == 2:
            return SolveOutcome(status="infeasible", message=res.message,
                                has_integers=True)
        if res.status == 3:
            return SolveOutcome(status="unbounded", message=res.message,
                                has_integers=True)
        return SolveOutcome(status="error", message=res.message,
                            has_integers=True)


def _maybe(res, attr, offset):
    val = getattr(res, attr, None)
    return None if val is None else float(val) + offset


# ---------------------------------------------------------------------------
# Array-level LP routines
# ---------------------------------------------------------------------------

def solve_lp(c: np.ndarray, A: sp.csr_matrix, senses: np.ndarray,
             rhs: np.ndarray, lb: np.ndarray, ub: np.ndarray,
             seconds: Optional[float] = None,
             offset: float = 0.0) -> SolveOutcome:
    """Minimize ``c^T x + offset`` s.t. ``A x {senses} rhs``, ``lb <= x <= ub``.

    An optimal outcome carries the primal, the row duals (module convention)
    and ``bound_duals``, the duals of the column upper bounds (<= 0, zero
    where a bound does not bind).
    """
    ineq, eq = senses != EQ, senses == EQ
    sign = np.where(senses[ineq] == GE, -1.0, 1.0)  # >= rows enter as <=
    options = {} if seconds is None else {"time_limit": seconds}
    res = linprog(c, A_ub=sp.diags(sign) @ A[ineq], b_ub=sign * rhs[ineq],
                  A_eq=A[eq], b_eq=rhs[eq],
                  bounds=np.column_stack([lb, ub]), method="highs",
                  options=options)
    if res.status == 0:
        duals = np.zeros(len(rhs))
        duals[ineq] = sign * np.asarray(res.ineqlin.marginals)
        duals[eq] = np.asarray(res.eqlin.marginals)
        return SolveOutcome(
            status="optimal", primal=np.asarray(res.x),
            objective=float(res.fun) + offset,
            best_bound=float(res.fun) + offset, duals=duals,
            bound_duals=np.asarray(res.upper.marginals), message=res.message)
    if res.status == 2:
        return SolveOutcome(status="infeasible", message=res.message)
    if res.status == 3:
        return SolveOutcome(status="unbounded", message=res.message)
    if res.status == 1 and res.x is not None:
        return SolveOutcome(status="feasible-limit", primal=np.asarray(res.x),
                            objective=float(res.fun) + offset,
                            message=res.message)
    return SolveOutcome(status="error", message=res.message)


class FarkasRay(NamedTuple):
    """Multipliers proving ``A x {senses} rhs``, ``lb <= x <= ub`` infeasible.

    ``rows`` weighs each row in its ``>=`` orientation: >= 0 on ``>=`` rows,
    <= 0 on ``<=`` rows, free on equalities. ``lower`` and ``upper`` are the
    >= 0 multipliers of the column bounds, zero where a bound is infinite.
    They satisfy ``A^T rows + lower - upper = 0`` and
    ``rhs^T rows + lb^T lower - ub^T upper = violation > 0``.
    """
    rows: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    violation: float


def farkas_ray(A: sp.csr_matrix, senses: np.ndarray, rhs: np.ndarray,
               lb: np.ndarray, ub: np.ndarray,
               tol: float = 1e-9) -> Optional[FarkasRay]:
    """Solve the Farkas LP of a system; None when no ray beats ``tol``.

    Inequality rows enter in their ``>=`` orientation, each equality as a
    +/- pair, and each finite upper bound with a multiplier; together these
    multipliers rho (>= 0) have mass <= 1:

        max  h^T rho + lb^T s   s.t.  G rho + s = 0,  sum rho <= 1

    with one row of ``G`` per column. A finite lower bound's multiplier s
    (>= 0) is that row's slack, so the row reads ``G rho <= 0`` and s leaves
    the objective as ``-lb^T G rho``, which vanishes when lb = 0. A column
    without a finite lower bound has no slack: its row is an equality.
    """
    ineq, eq = senses != EQ, senses == EQ
    sign = np.where(senses[ineq] == LE, -1.0, 1.0)  # <= rows enter as >=
    A_in = sp.diags(sign) @ A[ineq]
    has_lb, has_ub = np.isfinite(lb), np.isfinite(ub)
    I_ub = sp.identity(len(ub), format="csr")[has_ub]
    G = sp.hstack([A_in.T, A[eq].T, -A[eq].T, -I_ub.T]).tocsr()
    h = np.concatenate([sign * rhs[ineq], rhs[eq], -rhs[eq], -ub[has_ub]])
    h = h - G.T @ np.where(has_lb, lb, 0.0)
    n = G.shape[1]
    if n == 0:
        return None  # no rows and no finite upper bounds: nothing to prove
    res = linprog(-h, A_ub=sp.vstack([G[has_lb], np.ones((1, n))]).tocsr(),
                  b_ub=np.concatenate([np.zeros(int(has_lb.sum())), [1.0]]),
                  A_eq=G[~has_lb], b_eq=np.zeros(int((~has_lb).sum())),
                  bounds=(0, None), method="highs")
    if res.status != 0 or -res.fun <= tol:
        return None
    x = np.asarray(res.x)
    n_in, n_eq = int(ineq.sum()), int(eq.sum())
    rows = np.zeros(len(rhs))
    rows[ineq] = sign * x[:n_in]
    rows[eq] = x[n_in:n_in + n_eq] - x[n_in + n_eq:n_in + 2 * n_eq]
    upper = np.zeros(len(ub))
    upper[has_ub] = x[n_in + 2 * n_eq:]
    lower = np.where(has_lb, np.maximum(0.0, -(G @ x)), 0.0)
    return FarkasRay(rows, lower, upper, float(-res.fun))


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
    for col in model.columns:
        if not _NAME_RE.match(col.id):
            raise CapabilityError(f"column id {col.id!r} is not LP-safe")
        if not np.isfinite(col.lower):
            raise CapabilityError("LP export requires finite lower bounds")
    out = [f"\\ {model.name}", "Minimize"]
    terms = [(col.id, col.objective) for col in model.columns
             if col.objective != 0.0]
    out.append(" obj: " + _expr(terms, model.objective_offset))
    out.append("Subject To")
    names = [col.id for col in model.columns]
    rows = model._rows()
    indices, values = rows.indices.tolist(), rows.values.tolist()
    end = 0
    for rid, count, sense, rhs in zip(model.row_ids, rows.counts.tolist(),
                                      rows.senses.tolist(), rows.rhs.tolist()):
        start, end = end, end + count
        expr = _expr([(names[ci], v) for ci, v in
                      zip(indices[start:end], values[start:end])], 0.0)
        out.append(f" {rid}: {expr} {sense} {_fmt(rhs)}")
    out.append("Bounds")
    for col in model.columns:
        if col.kind == BINARY:
            continue
        if np.isinf(col.upper):
            if col.lower != 0.0:
                out.append(f" {col.id} >= {_fmt(col.lower)}")
        else:
            out.append(f" {_fmt(col.lower)} <= {col.id} <= {_fmt(col.upper)}")
    binaries = [col.id for col in model.columns if col.kind == BINARY]
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
