"""Thin abstraction over the LP/MILP engine.

This is the only module that talks to a third-party solver: HiGHS, through
``scipy.optimize.linprog`` / ``milp``. Models are described engine-neutrally
(columns, rows, senses) and solved by :class:`ScipyBackend`; the array-level
routines :func:`solve_lp` and :func:`farkas_ray` serve callers that hold a
system as matrices (the decomposition's scheduling LP). Models can be dumped
to / read from the textual LP interchange format for debugging.

Dual-value convention: the dual of a row is d(objective)/d(rhs) in the row's
*stated* sense. For a minimization problem that makes duals of ``>=`` rows
nonnegative and duals of ``<=`` rows nonpositive.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    """The request is outside what the adapter supports (e.g. duals on MILPs)."""


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


@dataclass
class Row:
    id: str
    indices: List[int]
    values: List[float]
    sense: str
    rhs: float


class AbstractModel:
    """A minimize-sense linear model with continuous and binary columns."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.columns: List[Column] = []
        self.rows: List[Row] = []
        self.objective_offset: float = 0.0
        self._col_ids: Dict[str, int] = {}
        self._row_ids: Dict[str, int] = {}

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
        if rid in self._row_ids:
            raise BackendError(f"duplicate row id {rid!r}")
        if sense not in _SENSES:
            raise BackendError(f"unknown row sense {sense!r}")
        if not np.isfinite(rhs):
            raise BackendError(f"row {rid!r}: non-finite rhs")
        indices, values = [], []
        for ci, val in entries:
            if val == 0.0:
                continue
            if not (0 <= ci < len(self.columns)):
                raise BackendError(f"row {rid!r}: unknown column index {ci}")
            if not np.isfinite(val):
                raise BackendError(f"row {rid!r}: non-finite coefficient")
            indices.append(int(ci))
            values.append(float(val))
        idx = len(self.rows)
        self.rows.append(Row(rid, indices, values, sense, float(rhs)))
        self._row_ids[rid] = idx
        return idx

    def fix_column(self, idx: int, value: float) -> None:
        """Pin a column to a value (must lie within its declared bounds)."""
        col = self.columns[idx]
        if not (col.lower - 1e-12 <= value <= col.upper + 1e-12):
            raise BackendError(
                f"cannot fix {col.id!r} to {value} outside "
                f"[{col.lower}, {col.upper}]")
        col.lower = col.upper = float(value)

    # -- introspection ------------------------------------------------------

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column_index(self, cid: str) -> int:
        return self._col_ids[cid]

    @property
    def has_integers(self) -> bool:
        return any(c.kind == BINARY for c in self.columns)

    def constraint_matrix(self) -> sp.csr_matrix:
        data, ri, ci = [], [], []
        for r, row in enumerate(self.rows):
            ri.extend([r] * len(row.indices))
            ci.extend(row.indices)
            data.extend(row.values)
        return sp.csr_matrix((data, (ri, ci)),
                             shape=(self.n_rows, self.n_cols))

    def arrays(self):
        """(c, lb, ub, integrality, A, senses, rhs) as numpy/scipy objects."""
        c = np.array([col.objective for col in self.columns])
        lb = np.array([col.lower for col in self.columns])
        ub = np.array([col.upper for col in self.columns])
        integrality = np.array(
            [1 if col.kind == BINARY else 0 for col in self.columns])
        senses = np.array([row.sense for row in self.rows])
        rhs = np.array([row.rhs for row in self.rows])
        return c, lb, ub, integrality, self.constraint_matrix(), senses, rhs


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass
class FarkasCertificate:
    """Multipliers proving an LP infeasible.

    The system is normalized to ``G x >= h`` (rows in stated order — an
    equality contributes its ``>=`` then its ``<=`` orientation — followed by
    finite lower-bound rows then finite upper-bound rows). ``multipliers``
    are >= 0 with ``G^T rho = 0`` and ``h^T rho = violation > 0``.
    """
    multipliers: np.ndarray
    terms: List[tuple]  # ("row", row_index, orientation) | ("lb"|"ub", col)
    violation: float


@dataclass
class SolveOutcome:
    status: str  # optimal | feasible-limit | limit-no-incumbent |
    #              infeasible | unbounded | error
    primal: Optional[np.ndarray] = None
    objective: Optional[float] = None
    best_bound: Optional[float] = None
    duals: Optional[np.ndarray] = None
    bound_duals: Optional[np.ndarray] = None  # d objective / d column upper
    gap: Optional[float] = None
    wall_seconds: float = 0.0
    message: str = ""
    has_integers: bool = False

    def value(self, index: int) -> float:
        if self.primal is None:
            raise BackendError(f"no primal point (status {self.status})")
        return float(self.primal[index])


def get_duals(outcome: SolveOutcome) -> np.ndarray:
    """Row duals of a solved continuous model (d objective / d rhs)."""
    if outcome.has_integers:
        raise CapabilityError("duals are undefined for models with binaries")
    if outcome.duals is None:
        raise BackendError(f"no duals available (status {outcome.status})")
    return outcome.duals


# ---------------------------------------------------------------------------
# The scipy/HiGHS adapter
# ---------------------------------------------------------------------------

class ScipyBackend:
    """Drives HiGHS through scipy.optimize (linprog for LPs, milp for MILPs).

    LPs come back with row and upper-bound duals. An infeasible LP is only a
    status; :func:`farkas_certificate` proves it on request. One solve = one
    engine session; HiGHS may multithread internally.
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


_ORIENTATIONS = {GE: (+1,), LE: (-1,), EQ: (+1, -1)}


def farkas_certificate(model: AbstractModel,
                       tol: float = 1e-9) -> Optional[FarkasCertificate]:
    """Find multipliers proving ``model``'s constraints infeasible.

    The model's view of :func:`farkas_ray`: each row's weight is split over
    its orientations, then the finite bounds follow. Returns None when no
    certificate is found.
    """
    if model.has_integers:
        raise CapabilityError("certificates are only defined for LPs")
    _, lb, ub, _, A, senses, rhs = model.arrays()
    ray = farkas_ray(A, senses, rhs, lb, ub, tol)
    if ray is None:
        return None
    terms, weights = [], []
    for r, sense in enumerate(senses):
        for orient in _ORIENTATIONS[sense]:
            terms.append(("row", r, orient))
            weights.append(max(0.0, orient * ray.rows[r]))
    for kind, mult, bound in (("lb", ray.lower, lb), ("ub", ray.upper, ub)):
        for ci in np.flatnonzero(np.isfinite(bound)):
            terms.append((kind, int(ci)))
            weights.append(mult[ci])
    return FarkasCertificate(multipliers=np.array(weights), terms=terms,
                             violation=ray.violation)


# ---------------------------------------------------------------------------
# LP interchange format
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _fmt(x: float) -> str:
    # Positional notation only: exponent forms ("1e-06") would confuse the
    # sign-splitting parser on re-import.
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
    for row in model.rows:
        expr = _expr([(model.columns[ci].id, v)
                      for ci, v in zip(row.indices, row.values)], 0.0)
        out.append(f" {row.id}: {expr} {row.sense} {_fmt(row.rhs)}")
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


def read_lp(text: str) -> AbstractModel:
    """Parse the LP subset emitted by :func:`to_lp_string`."""
    model = AbstractModel(name="imported")
    # First pass: collect variable names so indices exist before rows.
    lines = [ln for ln in (raw.split("\\")[0].strip()
                           for raw in text.splitlines()) if ln]
    section = None
    sections: Dict[str, List[str]] = {"objective": [], "rows": [],
                                      "bounds": [], "binary": []}
    for ln in lines:
        low = ln.lower()
        if low in ("minimize", "min"):
            section = "objective"
            continue
        if low in ("subject to", "s.t.", "st"):
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low == "binary":
            section = "binary"
            continue
        if low == "end":
            section = None
            continue
        if low in ("maximize", "max", "general"):
            raise CapabilityError(f"unsupported LP section {ln!r}")
        if section is None:
            raise BackendError(f"unexpected LP line {ln!r}")
        sections[section].append(ln)

    def strip_label(line):
        if ":" in line:
            return line.split(":", 1)[1].strip(), line.split(":", 1)[0].strip()
        return line, None

    # Discover names in deterministic order: objective, rows, bounds, binary.
    names: List[str] = []
    seen = set()

    def note(name):
        if name not in seen:
            seen.add(name)
            names.append(name)

    def scan(expr):
        for tok in expr.replace("+", " ").replace("-", " ").split():
            if _NAME_RE.match(tok):
                note(tok)

    obj_expr, _ = strip_label(" ".join(sections["objective"]))
    scan(obj_expr)
    row_specs = []
    for ln in sections["rows"]:
        body, label = strip_label(ln)
        m = re.search(r"(<=|>=|=)", body)
        if not m:
            raise BackendError(f"row without sense: {ln!r}")
        sense = m.group(1)
        lhs, rhs = body[:m.start()].strip(), body[m.end():].strip()
        scan(lhs)
        row_specs.append((label, lhs, sense, float(rhs)))
    for ln in sections["bounds"]:
        scan(ln.replace("<=", " ").replace(">=", " ").replace("free", " "))
    for ln in sections["binary"]:
        note(ln.strip())

    obj_terms, obj_const = _parse_expr(obj_expr)
    lowers = {n: 0.0 for n in names}
    uppers = {n: np.inf for n in names}
    kinds = {n: CONTINUOUS for n in names}
    for ln in sections["binary"]:
        kinds[ln.strip()] = BINARY
    for ln in sections["bounds"]:
        parts = ln.split()
        if len(parts) == 5 and parts[1] == "<=" and parts[3] == "<=":
            lowers[parts[2]] = float(parts[0])
            uppers[parts[2]] = float(parts[4])
        elif len(parts) == 3 and parts[1] == ">=":
            lowers[parts[0]] = float(parts[2])
        elif len(parts) == 2 and parts[1] == "free":
            raise CapabilityError("free variables are not supported")
        else:
            raise BackendError(f"bad bounds line {ln!r}")
    for n in names:
        model.add_column(n, kinds[n], lowers[n], uppers[n],
                         obj_terms.get(n, 0.0))
    model.objective_offset = obj_const
    for idx, (label, lhs, sense, rhs) in enumerate(row_specs):
        terms, const = _parse_expr(lhs)
        model.add_row(label or f"r{idx}",
                      [(model.column_index(n), v) for n, v in terms.items()],
                      sense, rhs - const)
    return model


def _parse_expr(expr: str):
    """'2.0 x - 3 y + 1.5' -> ({x: 2.0, y: -3.0}, 1.5)."""
    tokens = expr.replace("+", " + ").replace("-", " - ").split()
    terms: Dict[str, float] = {}
    const = 0.0
    sign, coef = 1.0, None
    for tok in tokens:
        if tok == "+" or tok == "-":
            if coef is not None:  # dangling number was a constant
                const += sign * coef
            sign, coef = (1.0 if tok == "+" else -1.0), None
        elif _NAME_RE.match(tok):
            val = sign * (1.0 if coef is None else coef)
            terms[tok] = terms.get(tok, 0.0) + val
            sign, coef = 1.0, None
        elif tok == "0" and coef is None and not terms and const == 0.0:
            coef = 0.0
        else:
            coef = float(tok)
    if coef is not None:
        const += sign * coef
    return terms, const


def read_lp_file(path: str) -> AbstractModel:
    with open(path) as fh:
        return read_lp(fh.read())
