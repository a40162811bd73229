"""Weil representation matrices on the group algebra of a discriminant form.

For a discriminant group D with quadratic form q and pairing b, and an even
positive-inertia count m, the generator matrices are

    T = diag(e^{2 pi i q(gamma)}),
    S[delta, gamma] = (sqrt i)^{2-m} / sqrt(|D|) * e^{-2 pi i b(gamma, delta)},

with sqrt(i) = e^{i pi / 4}.  The phases come from exact rational q and b
values, so the only floating point error is in the final complex exponential.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Sequence

from .discriminant import DiscriminantGroup
from .intlinalg import checked_even, checked_instance

if TYPE_CHECKING:
    import numpy as np

DIM_CAP = 2000


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    max_deviation: float
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "relation": self.relation,
            "max_deviation": self.max_deviation,
            "pass": self.passed,
        }


@dataclass
class WeilRepresentation:
    """Generator matrices of the representation, plus level and weight 1 + m/2.

    Values are immutable after construction; nothing here mutates them.
    """

    dim: int
    m: int
    s_matrix: np.ndarray
    t_matrix: np.ndarray
    level: int
    weight: int


def build_weil_rep(group: DiscriminantGroup, m: int) -> WeilRepresentation:
    """Construct the generator matrices for a discriminant group.

    The basis of the group algebra is the canonical element ordering of the
    group (lexicographic residue tuples), which fixes the matrix indexing.
    """
    import numpy as np

    checked_instance(group, DiscriminantGroup, "group")
    m = checked_even(m, "m", 2)
    dim = group.order
    if dim > DIM_CAP:
        raise ValueError(f"discriminant group order {dim} exceeds the dimension cap {DIM_CAP}")
    elements = tuple(group.elements())
    t = np.zeros((dim, dim), dtype=complex)
    for k, elem in enumerate(elements):
        t[k, k] = cmath.exp(2j * cmath.pi * float(group.q(elem)))
    prefactor = cmath.exp(1j * cmath.pi * (2 - m) / 4) / math.sqrt(dim)
    s = np.zeros((dim, dim), dtype=complex)
    for col, gamma in enumerate(elements):
        for row, delta in enumerate(elements):
            s[row, col] = prefactor * cmath.exp(-2j * cmath.pi * float(group.b(gamma, delta)))
    return WeilRepresentation(
        dim=dim,
        m=m,
        s_matrix=s,
        t_matrix=t,
        level=group.level,
        weight=1 + m // 2,
    )


def verify_sl2_relations(rep: WeilRepresentation, tol: float = 1e-9) -> list[RelationCheck]:
    """Check the defining relations to an entrywise tolerance.

    Failures are reported, not raised: each entry carries the relation name,
    the maximum absolute deviation, and a pass flag.
    """
    import numpy as np

    checked_instance(rep, WeilRepresentation, "rep")
    if isinstance(tol, bool) or not (isinstance(tol, Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive and finite tolerance, got {tol!r}")
    s = rep.s_matrix
    t = rep.t_matrix
    eye = np.eye(rep.dim)
    s2 = s @ s
    checks = []

    def record(name: str, deviation: np.ndarray) -> None:
        dev = float(np.abs(deviation).max()) if deviation.size else 0.0
        checks.append(RelationCheck(relation=name, max_deviation=dev, passed=dev <= tol))

    record("S^4 = Id", np.linalg.matrix_power(s, 4) - eye)
    record("(S*T)^3 = S^2", np.linalg.matrix_power(s @ t, 3) - s2)
    record(f"T^{rep.level} = Id", np.linalg.matrix_power(t, rep.level) - eye)
    record("S unitary", s @ s.conj().T - eye)
    return checks


def relations_pass(checks: Sequence[RelationCheck]) -> bool:
    if not isinstance(checks, (list, tuple)) or not all(isinstance(c, RelationCheck) for c in checks):
        raise ValueError(f"checks must be a list of RelationChecks, got {checks!r}")
    return all(c.passed for c in checks)
