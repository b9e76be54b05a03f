"""Problem and solution data model shared by every other module.

Instances and solutions are plain dataclasses holding sparse
coefficient lists.  They are treated as immutable after construction and
may be shared read-only across concurrently running solver workers.
"""

from __future__ import annotations

import itertools
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
    the remaining num_continuous variables carry explicit bounds, which
    must be finite: every LP relaxation is boxed.  ``param_tag`` records
    the data vector that varies across the instance family this problem
    belongs to.
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

    def validate(self, rows: bool = True) -> None:
        """Raise InvariantViolationError where the instance breaks an invariant.

        ``rows=False`` skips the rows, for an instance whose rows list is
        another's, already validated over the same variable counts.
        """
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise InvariantViolationError(f"bad sense {self.sense!r}")
        if not (_is_integer(self.num_binary) and _is_integer(self.num_continuous)):
            raise InvariantViolationError("num_binary and num_continuous must be integers")
        n = self.num_vars
        if self.num_binary < 0 or self.num_continuous < 0 or n < 1:
            raise InvariantViolationError("instance needs at least one variable")
        _check_sparse(self.objective, n, "objective")
        for r, row in enumerate(self.rows if rows else ()):
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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvariantViolationError(f"continuous bound {k} is not finite: [{lo}, {hi}]")
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


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_sparse(coeffs: list[tuple[int, float]], n: int, where: str) -> None:
    seen = set()
    for j, v in coeffs:
        if not _is_integer(j):
            raise InvariantViolationError(f"{where}: index {j!r} is not an integer")
        if j < 0 or j >= n:
            raise InvariantViolationError(f"{where}: index {j} out of range [0, {n})")
        if j in seen:
            raise InvariantViolationError(f"{where}: duplicate index {j}")
        seen.add(j)
        if not math.isfinite(v):
            raise InvariantViolationError(f"{where}: coefficient at {j} is not finite")


def _decode_real(v, where: str) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    # an array or object where a number belongs is, as in ``decode``, a
    # fault of the document's structure
    kind = "bad document structure: " if isinstance(v, (list, dict)) else ""
    raise MalformedDocumentError(f"{kind}{where}: {v!r} is not a number")


def _decode_reals(values, where: str) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array.

    What numpy cannot read as floats fails there.  A string, boolean or
    null that it reads ("0.5", true) is a MalformedDocumentError naming
    ``where``, found in one pass over the values.
    """
    arr = np.asarray(values, dtype=float)
    flat = [values]
    for _ in range(arr.ndim):
        flat = list(itertools.chain.from_iterable(flat))
    if not set(map(type, flat)) <= {int, float}:
        bad = next(v for v in flat if type(v) not in (int, float))
        raise MalformedDocumentError(f"{where}: {bad!r} is not a number")
    return arr


def serialize(instance: MipInstance) -> bytes:
    """Serialize an instance to a JSON byte stream.

    Reals round-trip bit-exactly (shortest round-trip decimal printing).
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
        "continuous_bounds": [[lo, hi] for lo, hi in instance.continuous_bounds],
        "param_tag": list(instance.param_tag),
    }
    return json.dumps(doc, allow_nan=False).encode("utf-8")


def read_document(data: bytes) -> dict:
    """Parse one on-disk JSON document and check its format version.

    Every loader reads through here.  Bytes that are not UTF-8 or not
    JSON (position-carrying), a top level that is not an object, and a
    ``format_version`` missing or other than FORMAT_VERSION raise
    MalformedDocumentError.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedDocumentError(f"not utf-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(str(exc), position=exc.pos) from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top level is not an object")
    if "format_version" not in doc:
        raise MalformedDocumentError("missing field 'format_version'")
    if doc["format_version"] != FORMAT_VERSION:
        raise MalformedDocumentError(f"unsupported format_version {doc['format_version']!r}")
    return doc


def decode(data: bytes, build: Callable[[dict], T]) -> T:
    """Read one document and build an object from its checked fields.

    A KeyError that ``build`` raises on a missing field, and a TypeError
    or ValueError on a wrongly typed one, become MalformedDocumentError,
    like every other fault in the document; an InvariantViolationError
    passes through.
    """
    doc = read_document(data)
    try:
        return build(doc)
    except (MalformedDocumentError, InvariantViolationError):
        raise
    except KeyError as exc:
        raise MalformedDocumentError(f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad document structure: {exc}") from exc


def _instance_from_doc(doc: dict, rows: list[LinearRow] | None = None) -> MipInstance:
    """The instance a document describes; ``rows`` stands in for its rows.
    Indexes and counts stay as decoded, for ``validate`` to check."""
    return MipInstance(
        name=str(doc["name"]),
        sense=doc["sense"],
        num_binary=doc["num_binary"],
        num_continuous=doc["num_continuous"],
        objective=[(j, _decode_real(v, "objective")) for j, v in doc["objective"]],
        rows=rows if rows is not None else [
            LinearRow(
                coeffs=[(j, _decode_real(v, f"row {r}")) for j, v in row["coeffs"]],
                sense=row["sense"],
                rhs=_decode_real(row["rhs"], f"row {r}"),
            )
            for r, row in enumerate(doc["rows"])
        ],
        continuous_bounds=[
            (_decode_real(lo, f"continuous bound {k}"), _decode_real(hi, f"continuous bound {k}"))
            for k, (lo, hi) in enumerate(doc["continuous_bounds"])
        ],
        param_tag=[_decode_real(v, "param_tag") for v in doc["param_tag"]],
    )


def deserialize(data: bytes) -> MipInstance:
    """Parse bytes produced by :func:`serialize` back into an instance.

    Raises MalformedDocumentError (position-carrying where possible) on
    parse/schema problems and InvariantViolationError when the decoded
    instance breaks a model invariant.
    """
    return read_instance(data)[1]


def read_instance(
    data: bytes, template: tuple[list, MipInstance] | None = None
) -> tuple[list, MipInstance]:
    """(rows document, instance) of bytes produced by :func:`serialize`,
    checked as :func:`deserialize` checks them.

    ``template`` is such a pair of a validated instance, a family's
    template.  A document whose ``rows`` and variable counts equal the
    template's takes the template's rows list itself, one list that the
    family shares and no code mutates, and validates only its own
    fields: objective, continuous bounds and tag.  Any other document is
    read and checked whole.
    """
    shared = None if template is None else template[1].rows

    def build(doc):
        same = template is not None and doc["rows"] == template[0] and (
            doc["num_binary"], doc["num_continuous"]
        ) == (template[1].num_binary, template[1].num_continuous)
        return doc["rows"], _instance_from_doc(doc, shared if same else None)

    rows_doc, instance = decode(data, build)
    instance.validate(rows=instance.rows is not shared)
    return rows_doc, instance


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
