"""Seeded generators for the benchmark instance families.

All generators draw from counter-based Philox streams keyed by
``(seed, stream)``: stream 0 holds the fixed family structure, stream
``1 + i`` the data of instance ``i``.  Families are therefore
reproducible across platforms and trivially parallel across instances.
``_family`` is the one recipe of every family: it names, draws and
validates the template and the members.  Every generated instance has
a point that meets its rows by construction: the ``<=`` rows of MKP, CA
and the uniform knapsack have b > 0 and hold at zero, and each ``>= 1``
row of SCP holds a 1 and so holds at all-ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (
    FORMAT_VERSION,
    MAXIMIZE,
    MINIMIZE,
    InvariantViolationError,
    LinearRow,
    MalformedDocumentError,
    MipInstance,
    decode,
    read_instance,
    serialize,
)


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


def _dense_rows(a: np.ndarray, sense: str, b: np.ndarray) -> list[LinearRow]:
    rows = []
    for i in range(a.shape[0]):
        nz = np.nonzero(a[i])[0]
        rows.append(
            LinearRow(coeffs=[(int(j), float(a[i, j])) for j in nz], sense=sense, rhs=float(b[i]))
        )
    return rows


def _family(kind, stem, varying_field, params, num_instances, seed, template_xi, draw, build):
    """The family ``kind`` over one structure, with ``num_instances`` members.

    ``build(xi, name)`` is the instance of data xi, and xi is its
    ``param_tag``.  The template, named ``<stem>_template``, takes
    ``template_xi``; member i, ``<stem>_<iii>``, takes what ``draw``
    returns from stream ``1 + i``.  Every instance is validated, and
    ``params`` gains ``num_instances``.
    """
    def make(xi, suffix):
        inst = build(xi, f"{stem}_{suffix}")
        inst.param_tag = [float(v) for v in xi]
        inst.validate()
        return inst

    members = [draw(stream_rng(seed, 1 + i)) for i in range(num_instances)]
    return InstanceFamily(
        template=make(template_xi, "template"),
        varying_field=varying_field,
        instances=[(xi, make(xi, f"{i:03d}")) for i, xi in enumerate(members)],
        seed=seed,
        kind=kind,
        params={**params, "num_instances": num_instances},
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
        return MipInstance(
            name=name,
            sense=MAXIMIZE,
            num_binary=n,
            num_continuous=0,
            objective=[(j, float(c[j])) for j in range(n)],
            rows=_dense_rows(a, "<=", b),
        )

    return _family("mkp", f"mkp_{m}x{n}", "rhs_b", {"m": m, "n": n}, num_instances, seed,
                   center, lambda ri: ri.uniform(0.8 * center, 1.2 * center), build)


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
        return MipInstance(
            name=name,
            sense=MINIMIZE,
            num_binary=n,
            num_continuous=0,
            objective=[(j, float(c[j])) for j in range(n)],
            rows=_dense_rows(a, ">=", np.ones(m)),
        )

    return _family("scp", f"scp_{m}x{n}", "cost_c", {"m": m, "n": n, "density": density},
                   num_instances, seed, base, lambda ri: ri.uniform(0.8 * base, 1.2 * base), build)


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
        return MipInstance(
            name=name,
            sense=MAXIMIZE,
            num_binary=num_bids,
            num_continuous=0,
            objective=[(j, float(values[j])) for j in range(num_bids)],
            rows=[
                LinearRow(coeffs=[(j, 1.0) for j in members], sense="<=", rhs=1.0)
                for _, members in item_rows
            ],
        )

    return _family("ca", f"ca_{num_items}x{num_bids}", "cost_c",
                   {"num_items": num_items, "num_bids": num_bids}, num_instances, seed, base_value,
                   lambda ri: base_value * ri.uniform(0.8, 1.2, size=num_bids), build)


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
    """The family written to ``path`` by :func:`write_family`.

    The template is read first.  A member whose rows document equals
    the template's takes the template's validated rows list, shared by
    the family, and is checked only in its own fields (objective,
    bounds and tag); any other member is read and checked whole
    (``model.read_instance``).  A fault in the template or a member
    raises its usual error with the file's name in front.
    """
    root = Path(path)

    def load(fname, read):
        try:
            return read((root / fname).read_bytes())
        except (MalformedDocumentError, InvariantViolationError) as exc:
            exc.args = (f"{fname}: {exc}", *exc.args[1:])
            raise

    def build(manifest):
        template = load(manifest["template"], read_instance)
        instances = [load(fname, lambda data: read_instance(data, template)[1])
                     for fname in manifest["instances"]]
        return InstanceFamily(
            template=template[1],
            varying_field=manifest["varying_field"],
            instances=[(np.array(inst.param_tag), inst) for inst in instances],
            seed=manifest["seed"],
            kind=manifest.get("kind", ""),
            params=manifest.get("params", {}),
        )

    return decode((root / "manifest.json").read_bytes(), build)
