"""Seeded generators for the benchmark instance families.

All generators draw from counter-based Philox streams keyed by
``(seed, stream)``: stream 0 holds the fixed family structure, stream
``1 + i`` the data of instance ``i``.  Families are therefore
reproducible across platforms and trivially parallel across instances.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    FORMAT_VERSION,
    MAXIMIZE,
    MINIMIZE,
    LinearRow,
    MipInstance,
    check_feasible,
    deserialize,
    decode,
    serialize,
)

VARYING_FIELDS = ("rhs_b", "cost_c", "demand_d")


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for the given (seed, stream) pair."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class InstanceFamily:
    """A parametric family: fixed template plus per-instance (xi, instance)."""

    template: MipInstance
    varying_field: str
    instances: list[tuple[np.ndarray, MipInstance]]
    seed: int
    kind: str = ""
    params: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instances)

    def validate(self) -> None:
        if self.varying_field not in VARYING_FIELDS:
            raise ValueError(f"bad varying_field {self.varying_field!r}")
        ref = fixed_signature(self.template, self.varying_field)
        for xi, inst in self.instances:
            inst.validate()
            if fixed_signature(inst, self.varying_field) != ref:
                raise ValueError(
                    f"instance {inst.name} differs from template outside "
                    f"{self.varying_field}"
                )
            if list(inst.param_tag) != [float(v) for v in np.asarray(xi)]:
                raise ValueError(f"instance {inst.name}: param_tag does not match xi")


def fixed_signature(instance: MipInstance, varying_field: str) -> str:
    """Hash of everything except the declared varying field (and name/tag)."""
    doc = json.loads(serialize(instance).decode("utf-8"))
    doc.pop("name")
    doc.pop("param_tag")
    if varying_field == "rhs_b":
        for row in doc["rows"]:
            row["rhs"] = None
    elif varying_field in ("cost_c", "demand_d"):
        doc["objective"] = None
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _dense_rows(a: np.ndarray, sense: str, b: np.ndarray) -> list[LinearRow]:
    rows = []
    for i in range(a.shape[0]):
        nz = np.nonzero(a[i])[0]
        rows.append(
            LinearRow(coeffs=[(int(j), float(a[i, j])) for j in nz], sense=sense, rhs=float(b[i]))
        )
    return rows


def _assert_lp_feasible(instance: MipInstance, witness: np.ndarray) -> None:
    ok, violated = check_feasible(instance, witness)
    if not ok:
        raise AssertionError(
            f"generated instance {instance.name} infeasible at witness, rows {violated}"
        )


def gen_mkp(m: int, n: int, num_instances: int, seed: int) -> InstanceFamily:
    """Multi-knapsack family: max c.y s.t. Ay <= b, only b varies (xi = b).

    A_ij ~ U{1..1000}, c_j = mean_i A_ij + U{1..500}, and per instance
    b_i ~ U[0.8 * s_i, 1.2 * s_i] with s_i = 0.25 * sum_j A_ij: each row
    holds about a quarter of its total weight, the tightness ratio 0.25
    of Chu & Beasley (1998).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    rng = stream_rng(seed, 0)
    a = rng.integers(1, 1001, size=(m, n)).astype(float)
    delta = rng.integers(1, 501, size=n).astype(float)
    c = a.mean(axis=0) + delta
    center = 0.25 * a.sum(axis=1)

    def build(b: np.ndarray, name: str) -> MipInstance:
        inst = MipInstance(
            name=name,
            sense=MAXIMIZE,
            num_binary=n,
            num_continuous=0,
            objective=[(j, float(c[j])) for j in range(n)],
            rows=_dense_rows(a, "<=", b),
            param_tag=[float(v) for v in b],
        )
        inst.validate()
        _assert_lp_feasible(inst, np.zeros(n))
        return inst

    template = build(center, f"mkp_{m}x{n}_template")
    instances = []
    for i in range(num_instances):
        ri = stream_rng(seed, 1 + i)
        b = ri.uniform(0.8 * center, 1.2 * center)
        instances.append((b, build(b, f"mkp_{m}x{n}_{i:03d}")))
    return InstanceFamily(
        template=template,
        varying_field="rhs_b",
        instances=instances,
        seed=seed,
        kind="mkp",
        params={"m": m, "n": n, "num_instances": num_instances},
    )


def gen_scp(m: int, n: int, density: float, num_instances: int, seed: int) -> InstanceFamily:
    """Set-covering family: min c.y s.t. Ay >= 1, only c varies (xi = c).

    A is binary with the given nonzero density; any all-zero row is
    repaired with one uniformly chosen nonzero.  Base costs are
    U{1..100}, per-instance costs c_j ~ U[0.8, 1.2] * base_j.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    rng = stream_rng(seed, 0)
    a = (rng.random((m, n)) < density).astype(float)
    for i in range(m):
        if not a[i].any():
            a[i, rng.integers(0, n)] = 1.0
    base = rng.integers(1, 101, size=n).astype(float)

    def build(c: np.ndarray, name: str) -> MipInstance:
        inst = MipInstance(
            name=name,
            sense=MINIMIZE,
            num_binary=n,
            num_continuous=0,
            objective=[(j, float(c[j])) for j in range(n)],
            rows=_dense_rows(a, ">=", np.ones(m)),
            param_tag=[float(v) for v in c],
        )
        inst.validate()
        _assert_lp_feasible(inst, np.ones(n))
        return inst

    template = build(base, f"scp_{m}x{n}_template")
    instances = []
    for i in range(num_instances):
        ri = stream_rng(seed, 1 + i)
        c = ri.uniform(0.8 * base, 1.2 * base)
        instances.append((c, build(c, f"scp_{m}x{n}_{i:03d}")))
    return InstanceFamily(
        template=template,
        varying_field="cost_c",
        instances=instances,
        seed=seed,
        kind="scp",
        params={"m": m, "n": n, "density": density, "num_instances": num_instances},
    )


def gen_ca(num_items: int, num_bids: int, num_instances: int, seed: int) -> InstanceFamily:
    """Combinatorial-auction family (set packing), bid values vary (xi = values).

    Bundles have uniform size in [2, 5] (capped by num_items) and a fixed
    per-bid unit price; each instance scales bid values by U[0.8, 1.2].
    Rows enforce that every item joins at most one accepted bid.
    """
    if num_items < 1 or num_bids < 1:
        raise ValueError("sizes must be >= 1")
    rng = stream_rng(seed, 0)
    max_size = min(5, num_items)
    min_size = min(2, max_size)
    bundles = []
    for _ in range(num_bids):
        size = int(rng.integers(min_size, max_size + 1))
        bundles.append(np.sort(rng.choice(num_items, size=size, replace=False)))
    unit_price = rng.uniform(1.0, 10.0, size=num_bids)
    base_value = np.array([len(bd) for bd in bundles]) * unit_price

    item_rows = []
    for item in range(num_items):
        members = [j for j, bd in enumerate(bundles) if item in bd]
        if members:
            item_rows.append((item, members))

    def build(values: np.ndarray, name: str) -> MipInstance:
        inst = MipInstance(
            name=name,
            sense=MAXIMIZE,
            num_binary=num_bids,
            num_continuous=0,
            objective=[(j, float(values[j])) for j in range(num_bids)],
            rows=[
                LinearRow(coeffs=[(j, 1.0) for j in members], sense="<=", rhs=1.0)
                for _, members in item_rows
            ],
            param_tag=[float(v) for v in values],
        )
        inst.validate()
        _assert_lp_feasible(inst, np.zeros(num_bids))
        return inst

    template = build(base_value, f"ca_{num_items}x{num_bids}_template")
    instances = []
    for i in range(num_instances):
        ri = stream_rng(seed, 1 + i)
        values = base_value * ri.uniform(0.8, 1.2, size=num_bids)
        instances.append((values, build(values, f"ca_{num_items}x{num_bids}_{i:03d}")))
    return InstanceFamily(
        template=template,
        varying_field="cost_c",
        instances=instances,
        seed=seed,
        kind="ca",
        params={"num_items": num_items, "num_bids": num_bids, "num_instances": num_instances},
    )


@dataclass
class UniformKnapsack:
    """A uniform random knapsack: weights a_i ~ U(0, 1), ratios f_i ~ U[0, 1].

    The instance's objective is c_i = f_i * a_i, so a and f are its row
    and its objective divided by that row.
    """

    instance: MipInstance


def gen_knapsack_uniform(n: int, gamma: float, seed: int) -> UniformKnapsack:
    """Knapsack max (f*a).y s.t. a.y <= gamma*n with uniform a, f.

    gamma must lie in (0, 1/2).
    """
    if not 0 < gamma < 0.5:
        raise ValueError("gamma must be in (0, 1/2)")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream_rng(seed, 0)
    a = rng.uniform(0.0, 1.0, size=n)
    a[a == 0.0] = 0.5  # measure-zero guard: weights must be positive
    f = rng.uniform(0.0, 1.0, size=n)
    c = f * a
    b = gamma * n
    inst = MipInstance(
        name=f"uknap_{n}_g{gamma}",
        sense=MAXIMIZE,
        num_binary=n,
        num_continuous=0,
        objective=[(j, float(c[j])) for j in range(n)],
        rows=[LinearRow(coeffs=[(j, float(a[j])) for j in range(n)], sense="<=", rhs=float(b))],
        param_tag=[],
    )
    inst.validate()
    _assert_lp_feasible(inst, np.zeros(n))
    return UniformKnapsack(instance=inst)


# On-disk family layout: a directory with manifest.json plus one
# instance_###.json per member (template in template.json).


def write_family(family: InstanceFamily, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i, (_, inst) in enumerate(family.instances):
        fname = f"instance_{i:04d}.json"
        (out / fname).write_bytes(serialize(inst))
        names.append(fname)
    (out / "template.json").write_bytes(serialize(family.template))
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": family.kind,
        "varying_field": family.varying_field,
        "seed": family.seed,
        "params": family.params,
        "template": "template.json",
        "instances": names,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def read_family(path: str | Path) -> InstanceFamily:
    root = Path(path)

    def build(manifest):
        template = deserialize((root / manifest["template"]).read_bytes())
        instances = [deserialize((root / fname).read_bytes()) for fname in manifest["instances"]]
        return InstanceFamily(
            template=template,
            varying_field=manifest["varying_field"],
            instances=[(np.array(inst.param_tag), inst) for inst in instances],
            seed=manifest["seed"],
            kind=manifest.get("kind", ""),
            params=manifest.get("params", {}),
        )

    return decode((root / "manifest.json").read_bytes(), build)
