"""Problem and solution data model shared by every other module.

Instances and solutions are plain dataclasses holding sparse
coefficient lists.  They are treated as immutable after construction and
may be shared read-only across concurrently running solver workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

FORMAT_VERSION = 1

T = TypeVar("T")

FEASIBILITY_TOL = 1e-6
INTEGRALITY_TOL = 1e-6

MINIMIZE = "minimize"
MAXIMIZE = "maximize"
ROW_SENSES = ("<=", "=", ">=")

_INF_TOKEN = "inf"
_NEG_INF_TOKEN = "-inf"


class MalformedDocumentError(ValueError):
    """An on-disk document could not be parsed or is schema-invalid.

    ``position`` carries the byte offset of the parse failure when the
    underlying JSON decoder provides one, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class InvariantViolationError(ValueError):
    """A constructed or parsed object violates a model invariant."""


@dataclass
class LinearRow:
    """One constraint row: sparse coefficients, sense and right-hand side."""

    coeffs: list[tuple[int, float]]
    sense: str
    rhs: float


@dataclass
class MipInstance:
    """A binary/continuous MILP with a parameter tag for its family.

    Variables 0..num_binary-1 are binary (implicitly bounded in [0, 1]);
    the remaining num_continuous variables carry explicit bounds where
    +-inf is allowed.  ``param_tag`` records the data vector that varies
    across the instance family this problem belongs to.
    """

    name: str
    sense: str
    num_binary: int
    num_continuous: int
    objective: list[tuple[int, float]]
    rows: list[LinearRow]
    continuous_bounds: list[tuple[float, float]] = field(default_factory=list)
    param_tag: list[float] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return self.num_binary + self.num_continuous

    def validate(self) -> None:
        n = self.num_vars
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise InvariantViolationError(f"bad sense {self.sense!r}")
        if self.num_binary < 0 or self.num_continuous < 0 or n < 1:
            raise InvariantViolationError("instance needs at least one variable")
        _check_sparse(self.objective, n, "objective")
        for r, row in enumerate(self.rows):
            if not row.coeffs:
                raise InvariantViolationError(f"row {r} has no coefficients")
            _check_sparse(row.coeffs, n, f"row {r}")
            if row.sense not in ROW_SENSES:
                raise InvariantViolationError(f"row {r}: bad sense {row.sense!r}")
            if not math.isfinite(row.rhs):
                raise InvariantViolationError(f"row {r}: rhs must be finite")
        if len(self.continuous_bounds) != self.num_continuous:
            raise InvariantViolationError(
                "continuous_bounds length does not match num_continuous"
            )
        for k, (lo, hi) in enumerate(self.continuous_bounds):
            if math.isnan(lo) or math.isnan(hi):
                raise InvariantViolationError(f"continuous bound {k} is NaN")
            if lo > hi:
                raise InvariantViolationError(f"continuous bound {k}: lower > upper")
        for v in self.param_tag:
            if not math.isfinite(v):
                raise InvariantViolationError("param_tag entries must be finite")

    # Dense views used by the solvers.

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.num_vars)
        for j, v in self.objective:
            c[j] = v
        return c

    def constraint_arrays(self) -> tuple[np.ndarray, list[str], np.ndarray]:
        m = len(self.rows)
        a = np.zeros((m, self.num_vars))
        b = np.zeros(m)
        senses = []
        for r, row in enumerate(self.rows):
            for j, v in row.coeffs:
                a[r, j] = v
            b[r] = row.rhs
            senses.append(row.sense)
        return a, senses, b

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lb = np.zeros(self.num_vars)
        ub = np.ones(self.num_vars)
        for k, (lo, hi) in enumerate(self.continuous_bounds):
            lb[self.num_binary + k] = lo
            ub[self.num_binary + k] = hi
        return lb, ub


@dataclass
class Solution:
    """Variable assignment with its objective value and solver status."""

    values: np.ndarray
    objective: float
    status: str  # optimal | feasible | infeasible

    def binary_part(self, instance: MipInstance) -> np.ndarray:
        return np.asarray(self.values)[: instance.num_binary]


def _check_sparse(coeffs: list[tuple[int, float]], n: int, where: str) -> None:
    seen = set()
    for j, v in coeffs:
        if not isinstance(j, (int, np.integer)) or isinstance(j, bool):
            raise InvariantViolationError(f"{where}: index {j!r} is not an integer")
        if j < 0 or j >= n:
            raise InvariantViolationError(f"{where}: index {j} out of range [0, {n})")
        if j in seen:
            raise InvariantViolationError(f"{where}: duplicate index {j}")
        seen.add(j)
        if not math.isfinite(v):
            raise InvariantViolationError(f"{where}: coefficient at {j} is not finite")


def _encode_bound(v: float) -> float | str:
    if v == math.inf:
        return _INF_TOKEN
    if v == -math.inf:
        return _NEG_INF_TOKEN
    return v


def _decode_bound(v) -> float:
    if v == _INF_TOKEN:
        return math.inf
    if v == _NEG_INF_TOKEN:
        return -math.inf
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise MalformedDocumentError(f"bad bound token {v!r}")


def serialize(instance: MipInstance) -> bytes:
    """Serialize an instance to a JSON byte stream.

    Reals round-trip bit-exactly (shortest round-trip decimal printing);
    infinite continuous bounds are encoded as string sentinels.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "name": instance.name,
        "sense": instance.sense,
        "num_binary": instance.num_binary,
        "num_continuous": instance.num_continuous,
        "objective": [[j, v] for j, v in instance.objective],
        "rows": [
            {"coeffs": [[j, v] for j, v in row.coeffs], "sense": row.sense, "rhs": row.rhs}
            for row in instance.rows
        ],
        "continuous_bounds": [
            [_encode_bound(lo), _encode_bound(hi)] for lo, hi in instance.continuous_bounds
        ],
        "param_tag": list(instance.param_tag),
    }
    return json.dumps(doc, allow_nan=False).encode("utf-8")


class _Document(dict):
    """A decoded JSON object whose missing fields raise MalformedDocumentError."""

    def __missing__(self, key):
        raise MalformedDocumentError(f"missing field {key!r}")


def read_document(data: bytes) -> dict:
    """Parse one on-disk JSON document and check its format version.

    Every loader reads through here.  Bytes that are not UTF-8 or not
    JSON (position-carrying), a top level that is not an object, and a
    ``format_version`` other than FORMAT_VERSION raise
    MalformedDocumentError, and so does indexing a missing field of any
    object in the returned document.
    """
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_Document)
    except UnicodeDecodeError as exc:
        raise MalformedDocumentError(f"not utf-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(str(exc), position=exc.pos) from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top level is not an object")
    if doc["format_version"] != FORMAT_VERSION:
        raise MalformedDocumentError(f"unsupported format_version {doc['format_version']!r}")
    return doc


def decode(data: bytes, build: Callable[[dict], T]) -> T:
    """Read one document and build an object from its checked fields.

    A TypeError or ValueError that ``build`` raises on a wrongly typed
    field becomes MalformedDocumentError, like every other fault in the
    document; an InvariantViolationError passes through.
    """
    doc = read_document(data)
    try:
        return build(doc)
    except (MalformedDocumentError, InvariantViolationError):
        raise
    except (TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad document structure: {exc}") from exc


def _instance_from_doc(doc: dict) -> MipInstance:
    return MipInstance(
        name=str(doc["name"]),
        sense=doc["sense"],
        num_binary=int(doc["num_binary"]),
        num_continuous=int(doc["num_continuous"]),
        objective=[(int(j), float(v)) for j, v in doc["objective"]],
        rows=[
            LinearRow(
                coeffs=[(int(j), float(v)) for j, v in row["coeffs"]],
                sense=row["sense"],
                rhs=float(row["rhs"]),
            )
            for row in doc["rows"]
        ],
        continuous_bounds=[
            (_decode_bound(lo), _decode_bound(hi)) for lo, hi in doc["continuous_bounds"]
        ],
        param_tag=[float(v) for v in doc["param_tag"]],
    )


def deserialize(data: bytes) -> MipInstance:
    """Parse bytes produced by :func:`serialize` back into an instance.

    Raises MalformedDocumentError (position-carrying where possible) on
    parse/schema problems and InvariantViolationError when the decoded
    instance breaks a model invariant.
    """
    instance = decode(data, _instance_from_doc)
    instance.validate()
    return instance


def row_residual(row: LinearRow, values: np.ndarray) -> float:
    """Violation of one row at ``values``; <= 0 means satisfied."""
    lhs = sum(v * values[j] for j, v in row.coeffs)
    if row.sense == "<=":
        return lhs - row.rhs
    if row.sense == ">=":
        return row.rhs - lhs
    return abs(lhs - row.rhs)


def check_feasible(
    instance: MipInstance, values, tol: float = FEASIBILITY_TOL
) -> tuple[bool, list[int]]:
    """Report which rows ``values`` violates beyond ``tol`` (inclusive).

    Returns (feasible, violated_row_indices).  A residual of exactly
    ``tol`` counts as feasible.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (instance.num_vars,):
        raise ValueError(
            f"values has length {values.size}, expected {instance.num_vars}"
        )
    violated = [
        r for r, row in enumerate(instance.rows) if row_residual(row, values) > tol
    ]
    return (not violated), violated
