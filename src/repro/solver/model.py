"""A small algebraic modeling layer over the LP/MILP solvers.

Lets problem encodings read like the paper's math::

    m = Model()
    n = [m.add_var(lb=low[i], ub=G, integer=True, name=f"N_{i}") for i in ...]
    m.add_constr(LinExpr.sum(n) == G)
    m.minimize(cost_expr)
    sol = m.solve()

Expressions are linear only; attempting to multiply two variables raises
immediately rather than silently mis-modeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SolverError
from repro.solver.branch_bound import MilpResult, solve_milp
from repro.solver.simplex import LinearProgram, LpResult, solve_lp


@dataclass(frozen=True)
class Var:
    """A decision variable; use it in arithmetic to build :class:`LinExpr`."""

    index: int
    name: str

    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-1.0 * self._expr()) + other

    def __mul__(self, other):
        return self._expr() * other

    __rmul__ = __mul__

    def __neg__(self):
        return -1.0 * self._expr()

    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Var):
            return self._expr() == other._expr()
        return self._expr() == other

    def __hash__(self) -> int:
        return hash((self.index, self.name))


class LinExpr:
    """An affine expression ``sum(coeff_j * x_j) + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: dict[int, float] | None = None, constant: float = 0.0):
        self.coeffs: dict[int, float] = dict(coeffs or {})
        self.constant = float(constant)

    @staticmethod
    def _coerce(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Var):
            return value._expr()
        if isinstance(value, (int, float, np.integer, np.floating)):
            return LinExpr({}, float(value))
        raise SolverError(f"cannot use {type(value).__name__} in a linear expression")

    @staticmethod
    def sum(terms) -> "LinExpr":
        """Sum an iterable of vars/expressions/numbers."""
        total = LinExpr()
        for t in terms:
            total = total + t
        return total

    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.constant)

    def __add__(self, other) -> "LinExpr":
        other = self._coerce(other)
        out = self.copy()
        for j, c in other.coeffs.items():
            out.coeffs[j] = out.coeffs.get(j, 0.0) + c
        out.constant += other.constant
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (LinExpr._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr._coerce(other) + (self * -1.0)

    def __mul__(self, other) -> "LinExpr":
        if isinstance(other, (Var, LinExpr)):
            raise SolverError("nonlinear product of variables is not supported")
        scale = float(other)
        return LinExpr({j: c * scale for j, c in self.coeffs.items()},
                       self.constant * scale)

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other) -> "Constraint":
        return Constraint(self - other, "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, ">=")

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - other, "==")

    def __hash__(self) -> int:  # expressions are mutable; identity hash
        return id(self)

    def value(self, x: np.ndarray) -> float:
        """Evaluate the expression at a solution vector."""
        return self.constant + sum(c * x[j] for j, c in self.coeffs.items())


@dataclass
class Constraint:
    """``expr (<=|>=|==) 0`` — produced by comparison operators."""

    expr: LinExpr
    sense: str
    name: str = ""


@dataclass
class Solution:
    """Solved model: variable values accessible through ``sol[var]``."""

    status: str
    objective: float
    x: np.ndarray | None
    nodes_explored: int = 0
    extra: dict = field(default_factory=dict)

    def __getitem__(self, var: Var) -> float:
        if self.x is None:
            raise SolverError("no solution available")
        return float(self.x[var.index])

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class Model:
    """Container for variables, constraints and a linear objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._names: list[str] = []
        self._constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr()

    @property
    def num_vars(self) -> int:
        return len(self._lb)

    def add_var(
        self,
        lb: float = 0.0,
        ub: float = float("inf"),
        integer: bool = False,
        name: str | None = None,
    ) -> Var:
        """Create a decision variable with the given bounds."""
        if not np.isfinite(lb):
            raise SolverError("variables need a finite lower bound")
        if ub < lb:
            raise SolverError(f"ub {ub} < lb {lb} for variable {name!r}")
        index = self.num_vars
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._integer.append(bool(integer))
        self._names.append(name or f"x{index}")
        return Var(index, self._names[-1])

    def add_vars(self, count: int, **kwargs) -> list[Var]:
        """Create ``count`` variables sharing bounds/integrality."""
        prefix = kwargs.pop("name", "x")
        return [self.add_var(name=f"{prefix}[{i}]", **kwargs) for i in range(count)]

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise SolverError(
                "add_constr expects a comparison of linear expressions; "
                "got a plain bool — use LinExpr/Var comparisons"
            )
        constraint.name = name
        self._constraints.append(constraint)
        return constraint

    def minimize(self, expr) -> None:
        self._objective = LinExpr._coerce(expr)

    def maximize(self, expr) -> None:
        self._objective = LinExpr._coerce(expr) * -1.0

    def _build(self) -> tuple[LinearProgram, np.ndarray, float]:
        n = self.num_vars
        c = np.zeros(n)
        for j, coeff in self._objective.coeffs.items():
            c[j] = coeff
        a_ub_rows, b_ub, a_eq_rows, b_eq = [], [], [], []
        for con in self._constraints:
            row = np.zeros(n)
            for j, coeff in con.expr.coeffs.items():
                row[j] = coeff
            rhs = -con.expr.constant
            if con.sense == "<=":
                a_ub_rows.append(row)
                b_ub.append(rhs)
            elif con.sense == ">=":
                a_ub_rows.append(-row)
                b_ub.append(-rhs)
            else:
                a_eq_rows.append(row)
                b_eq.append(rhs)
        lp = LinearProgram(
            c=c,
            a_ub=np.vstack(a_ub_rows) if a_ub_rows else None,
            b_ub=np.asarray(b_ub) if b_ub else None,
            a_eq=np.vstack(a_eq_rows) if a_eq_rows else None,
            b_eq=np.asarray(b_eq) if b_eq else None,
            lb=np.asarray(self._lb),
            ub=np.asarray(self._ub),
        )
        return lp, np.asarray(self._integer, dtype=bool), self._objective.constant

    def solve(
        self,
        max_nodes: int = 50_000,
        warm_values: dict[Var, float] | None = None,
        deadline_s: float | None = None,
    ) -> Solution:
        """Solve; dispatches to pure LP when no integer variables exist.

        ``warm_values`` maps variables to a candidate solution (missing
        variables default to their lower bound); if the point is
        feasible it seeds the branch & bound incumbent. ``deadline_s``
        bounds the branch & bound wall clock; on expiry the best
        incumbent is returned with ``extra["interrupted"] = True``.
        """
        lp, int_mask, const = self._build()
        if not int_mask.any():
            res: LpResult = solve_lp(lp)
            return Solution(
                status=res.status.value,
                objective=res.objective + const if res.is_optimal else float("nan"),
                x=res.x,
                extra={"lp_iterations": res.iterations},
            )
        warm_x = None
        if warm_values is not None:
            warm_x = np.asarray(self._lb, dtype=float).copy()
            for var, value in warm_values.items():
                warm_x[var.index] = float(value)
        mres: MilpResult = solve_milp(
            lp, int_mask, max_nodes=max_nodes, warm_x=warm_x, deadline_s=deadline_s
        )
        return Solution(
            status=mres.status.value,
            objective=mres.objective + const if mres.x is not None else float("nan"),
            x=mres.x,
            nodes_explored=mres.nodes_explored,
            extra={
                "lp_iterations": mres.lp_iterations,
                "warm_started": mres.warm_started,
                "interrupted": mres.interrupted,
            },
        )
